package netsim

import "testing"

func TestCostProfiles(t *testing.T) {
	k, d, n := KernelNetworking(), DPDKNetworking(), NoNetworking()
	if k.RVPerQuery <= d.RVPerQuery {
		t.Fatal("kernel networking must cost more than DPDK (paper §V-E)")
	}
	if d.RVPerQuery <= n.RVPerQuery {
		t.Fatal("DPDK must cost more than local-memory reads")
	}
	for _, p := range []CostProfile{k, d, n} {
		if p.Name == "" || p.SDPerQuery <= 0 || p.InstrPerQueryRV <= 0 {
			t.Fatalf("incomplete profile %+v", p)
		}
	}
}
