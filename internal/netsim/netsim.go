// Package netsim models the network front-end of the key-value store for the
// simulated experiments: per-query receive/send unit costs of the RV and SD
// tasks, which the paper pins to the CPU and estimates with profiled unit
// costs (§IV-B).
//
// Two cost profiles mirror the paper's §V-E distinction between Linux-kernel
// networking (what DIDO uses; "which overhead is huge") and a DPDK-style
// user-space driver (what Mega-KV (Discrete) uses on 8-byte-key workloads).
// A third profile represents the no-network mode the paper uses for the
// larger-key Fig 16 comparisons ("read packets from local memory").
package netsim

import "time"

// CostProfile gives the per-query CPU cost of the RV and SD tasks.
type CostProfile struct {
	Name string
	// RVPerQuery is the per-query cost of receiving+delivering a packet.
	RVPerQuery time.Duration
	// SDPerQuery is the per-query cost of handing a response to the NIC.
	SDPerQuery time.Duration
	// InstrPerQueryRV/SD approximate the instruction footprint, used by the
	// cost model's Eq 1 for these tasks.
	InstrPerQueryRV float64
	InstrPerQuerySD float64
}

// KernelNetworking models Linux-kernel UDP I/O (paper: DIDO's evaluation
// mode). Per-query cost is small despite syscall overhead because the
// evaluation batches queries "in an Ethernet frame as many as possible"
// (§V-A): a 64 KB datagram carries ~2000 small queries, amortizing the
// ~5 µs kernel path to a few ns per query — which is how Mega-KV's Network
// Processing stage measures only 25-42 µs per 300 µs batch (Fig 4).
func KernelNetworking() CostProfile {
	return CostProfile{
		Name:            "kernel",
		RVPerQuery:      4 * time.Nanosecond,
		SDPerQuery:      4 * time.Nanosecond,
		InstrPerQueryRV: 15,
		InstrPerQuerySD: 15,
	}
}

// DPDKNetworking models a user-space NIC driver (Mega-KV (Discrete)'s mode
// for 8-byte-key workloads): no syscalls, polled rings.
func DPDKNetworking() CostProfile {
	return CostProfile{
		Name:            "dpdk",
		RVPerQuery:      2 * time.Nanosecond,
		SDPerQuery:      2 * time.Nanosecond,
		InstrPerQueryRV: 5,
		InstrPerQuerySD: 5,
	}
}

// NoNetworking models reading packets from local memory (the mode both
// systems use for the larger-key Fig 16 comparisons).
func NoNetworking() CostProfile {
	return CostProfile{
		Name:            "none",
		RVPerQuery:      1 * time.Nanosecond,
		SDPerQuery:      1 * time.Nanosecond,
		InstrPerQueryRV: 2,
		InstrPerQuerySD: 2,
	}
}
