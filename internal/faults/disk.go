package faults

import (
	"errors"
	"io"
	"math/rand"
	"sync"
	"time"

	"repro/internal/stats"
)

// This file is the filesystem half of the fault injector: a wrapper around
// the WAL's append handle that injects the failure modes a real disk (or a
// crash mid-write) produces — short writes, outright write errors, fsync
// errors, delayed syncs, and a torn final record on close. It mirrors the
// packet-level Conn wrapper: seeded, deterministic, counting everything it
// does. The interface is structural (wal.File satisfies FileLike and
// *DiskFile satisfies wal.File) so neither package imports the other.

// ErrInjected is the error DiskFile returns from injected write and sync
// failures.
var ErrInjected = errors.New("faults: injected disk error")

// FileLike is the write-handle surface DiskFile wraps. *os.File and wal.File
// both satisfy it.
type FileLike interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// DiskConfig enables the individual disk fault modes; all probabilities are
// per-call in [0,1].
type DiskConfig struct {
	// Seed makes the injected faults reproducible; 0 seeds from a fixed
	// constant.
	Seed int64
	// ShortWrite is the probability a write persists only a strict prefix
	// (at least one byte) and returns io.ErrShortWrite. A correct logger
	// retries the remainder.
	ShortWrite float64
	// WriteErr is the probability a write fails outright with ErrInjected
	// and zero progress.
	WriteErr float64
	// SyncErr is the probability Sync reports ErrInjected without syncing.
	SyncErr float64
	// SyncDelay is added to every Sync call (a slow disk).
	SyncDelay time.Duration
	// TornTail, when > 0, makes Close truncate up to TornTail bytes off the
	// file's tail (a torn last record, as a crash mid-write leaves behind).
	// Requires the wrapped handle to implement Truncate(int64) error.
	TornTail int
}

// DiskStats counts the faults a DiskFile injected.
type DiskStats struct {
	ShortWrites uint64
	WriteErrs   uint64
	SyncErrs    uint64
	Syncs       uint64
	TornBytes   uint64
}

// DiskFile wraps a write handle with fault injection per cfg.
type DiskFile struct {
	f   FileLike
	cfg DiskConfig

	mu   sync.Mutex
	rng  *rand.Rand
	size int64 // bytes successfully written (for TornTail truncation)

	shortWrites, writeErrs, syncErrs, syncs, tornBytes stats.Counter
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

func (d *DiskFile) Write(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cfg.WriteErr > 0 && d.rng.Float64() < d.cfg.WriteErr {
		d.writeErrs.Inc()
		return 0, ErrInjected
	}
	if d.cfg.ShortWrite > 0 && len(p) > 1 && d.rng.Float64() < d.cfg.ShortWrite {
		n := 1 + d.rng.Intn(len(p)-1)
		n, err := d.f.Write(p[:n])
		d.size += int64(n)
		d.shortWrites.Inc()
		if err != nil {
			return n, err
		}
		return n, io.ErrShortWrite
	}
	n, err := d.f.Write(p)
	d.size += int64(n)
	return n, err
}

func (d *DiskFile) Sync() error {
	d.mu.Lock()
	delay := d.cfg.SyncDelay
	fail := d.cfg.SyncErr > 0 && d.rng.Float64() < d.cfg.SyncErr
	d.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if fail {
		d.syncErrs.Inc()
		return ErrInjected
	}
	d.syncs.Inc()
	return d.f.Sync()
}

// Close closes the handle; with TornTail configured and a truncatable
// underlying file, it first tears 1..TornTail bytes off the tail, simulating
// the torn final record a crash leaves behind.
func (d *DiskFile) Close() error {
	d.mu.Lock()
	tear := 0
	if d.cfg.TornTail > 0 {
		tear = 1 + d.rng.Intn(d.cfg.TornTail)
		if int64(tear) > d.size {
			tear = int(d.size)
		}
	}
	size := d.size
	d.mu.Unlock()
	if tear > 0 {
		if tr, ok := d.f.(interface{ Truncate(int64) error }); ok {
			if err := tr.Truncate(size - int64(tear)); err == nil {
				d.tornBytes.Add(uint64(tear))
			}
		}
	}
	return d.f.Close()
}

// DiskStats returns a snapshot of the injected-fault counters.
func (d *DiskFile) DiskStats() DiskStats {
	return DiskStats{
		ShortWrites: d.shortWrites.Load(),
		WriteErrs:   d.writeErrs.Load(),
		SyncErrs:    d.syncErrs.Load(),
		Syncs:       d.syncs.Load(),
		TornBytes:   d.tornBytes.Load(),
	}
}

// Enabled reports whether any disk fault mode is configured — callers skip
// wrapping entirely otherwise.
func (c DiskConfig) Enabled() bool {
	return c.ShortWrite > 0 || c.WriteErr > 0 || c.SyncErr > 0 || c.SyncDelay > 0 || c.TornTail > 0
}
