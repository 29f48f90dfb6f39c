package faults

import (
	"errors"
	"math/rand"
	"sync"
)

// This file is the filesystem half of the fault injector: a wrapper around
// the WAL's append handle that fails fsyncs, the disk fault the durability
// contract turns on (an ack must never follow a failed sync). It mirrors the
// packet-level Conn wrapper: seeded and deterministic. The interface is
// structural (wal.File satisfies FileLike and *DiskFile satisfies wal.File)
// so neither package imports the other.

// ErrInjected is the error DiskFile returns from injected sync failures.
var ErrInjected = errors.New("faults: injected disk error")

// FileLike is the write-handle surface DiskFile wraps. *os.File and wal.File
// both satisfy it.
type FileLike interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// DiskConfig configures a DiskFile.
type DiskConfig struct {
	// Seed makes the injected faults reproducible; 0 seeds from a fixed
	// constant.
	Seed int64
	// SyncErr is the probability in [0,1] that Sync reports ErrInjected
	// without syncing.
	SyncErr float64
}

// DiskFile wraps a write handle with fault injection per cfg.
type DiskFile struct {
	f   FileLike
	cfg DiskConfig

	mu  sync.Mutex
	rng *rand.Rand
}

// WrapFile wraps f with the disk fault injector. With a zero config it is a
// transparent pass-through.
func WrapFile(f FileLike, cfg DiskConfig) *DiskFile {
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x0d15c
	}
	return &DiskFile{f: f, cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

func (d *DiskFile) Write(p []byte) (int, error) { return d.f.Write(p) }

func (d *DiskFile) Sync() error {
	d.mu.Lock()
	fail := d.cfg.SyncErr > 0 && d.rng.Float64() < d.cfg.SyncErr
	d.mu.Unlock()
	if fail {
		return ErrInjected
	}
	return d.f.Sync()
}

func (d *DiskFile) Close() error { return d.f.Close() }
