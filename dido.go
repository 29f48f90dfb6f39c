// Package dido is a reproduction of "DIDO: Dynamic Pipelines for In-Memory
// Key-Value Stores on Coupled CPU-GPU Architectures" (Zhang, Hu, He, Hua —
// ICDE 2017).
//
// The package exposes three facilities:
//
//   - Store: a real, embeddable, concurrent in-memory key-value store built
//     on the paper's substrate (cuckoo-hash index with short signatures,
//     slab arena with per-class CLOCK eviction, optional ordered index for
//     Scan).
//
//   - Server: the key-value server over a Store. Every frame executes on the
//     batched task-granular pipeline; Serve speaks the batched binary
//     protocol over UDP and ServeRESP speaks RESP2 over TCP.
//
//   - Client: a UDP client for Server that batches queries per call and
//     resends lost frames with backoff.
//
// The simulated DIDO system that reproduces the paper's figures lives in
// internal/dido and is driven by cmd/dido-bench and examples/adaptive.
//
// Quick start:
//
//	st := dido.NewStore(dido.StoreConfig{MemoryBytes: 64 << 20})
//	st.Set([]byte("user:42"), []byte(`{"name":"ada"}`))
//	v, ok := st.Get([]byte("user:42"))
//
//	srv := dido.NewServer(st)
//	go srv.Serve("127.0.0.1:11411")
//	c, _ := dido.Dial("127.0.0.1:11411")
//	v, ok, err := c.Get([]byte("user:42"))
package dido
