// Quickstart: embed the key-value store, write and read a few objects, and
// watch eviction kick in when the arena fills.
package main

import (
	"fmt"

	"repro"
)

func main() {
	// A deliberately tiny arena so eviction is observable.
	st := dido.NewStore(dido.StoreConfig{MemoryBytes: 4 << 20})

	// Basic operations.
	must(st.Set([]byte("user:1"), []byte(`{"name":"ada","plan":"pro"}`)))
	must(st.Set([]byte("user:2"), []byte(`{"name":"lin","plan":"free"}`)))

	if v, ok := st.Get([]byte("user:1")); ok {
		fmt.Printf("user:1 → %s\n", v)
	}
	st.Delete([]byte("user:2"))
	if _, ok := st.Get([]byte("user:2")); !ok {
		fmt.Println("user:2 deleted")
	}

	// Fill past the arena budget: the store evicts per size class, by CLOCK,
	// instead of failing (the paper's MM task, §II-B).
	val := make([]byte, 1024)
	for i := 0; i < 8192; i++ {
		must(st.Set(fmt.Appendf(nil, "bulk:%05d", i), val))
	}
	s := st.Stats()
	fmt.Printf("after bulk load: live=%d evictions=%d index-load=%.2f\n",
		s.LiveObjects, s.Evictions, s.IndexLoadFactor)

	// Recent keys survive; the oldest were evicted.
	if _, ok := st.Get([]byte("bulk:08191")); !ok {
		panic("most recent key missing")
	}
	if _, ok := st.Get([]byte("bulk:00000")); ok {
		fmt.Println("note: oldest key survived (arena larger than load)")
	} else {
		fmt.Println("oldest key evicted, as expected under memory pressure")
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
