package dido

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/wal"
)

// TestDurableServerDiskSyncFaults puts the disk fault injector under the WAL
// with a 100% fsync failure rate: every commit fails, so the server must drop
// every ack (the client times out and would retry) rather than acknowledge a
// write that never became durable. The serve loop survives it all.
func TestDurableServerDiskSyncFaults(t *testing.T) {
	opts := durableOpts(t.TempDir())
	disk := faults.DiskConfig{Seed: 7, SyncErr: 1.0}
	opts.Durability.OpenFile = func(path string) (wal.File, error) {
		f, err := wal.DefaultOpenFile(path)
		if err != nil {
			return nil, err
		}
		return faults.WrapFile(f, disk), nil
	}
	st := NewStore(StoreConfig{MemoryBytes: 16 << 20})
	srv, err := NewServerDurable(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	addr, errc := startServer(t, srv)
	defer srv.Close()
	c, err := DialOpts(addr, ClientOptions{Timeout: 100 * time.Millisecond, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set([]byte("k"), []byte("v")); !errors.Is(err, ErrTimeout) {
		t.Fatalf("SET with a failing fsync must time out (no ack), got %v", err)
	}
	// GETs carry no durability obligation and still answer.
	if _, _, err := c.Get([]byte("absent")); err != nil {
		t.Fatalf("GET must still be served: %v", err)
	}
	ds, _ := srv.DurabilityStats()
	if ds.WAL.SyncErrs == 0 || ds.DroppedAcks == 0 {
		t.Fatalf("fault accounting: %+v", ds)
	}
	srv.Close()
	waitServe(t, errc)
}

// TestCrashServerHelper is the re-exec target of TestCrashRecoveryKill9: it
// runs a durable server until the parent kills the process, in the batch
// shape the parent selects by subtest name. It skips unless spawned by the
// parent test.
func TestCrashServerHelper(t *testing.T) {
	if os.Getenv("DIDO_CRASH_HELPER") != "1" {
		t.Skip("helper process for TestCrashRecoveryKill9")
	}
	forEachBatchShape(t, func(t *testing.T, po *PipelineOptions) {
		opts := durableOpts(os.Getenv("DIDO_CRASH_DIR"))
		opts.Pipeline = po
		st := NewStore(StoreConfig{MemoryBytes: 32 << 20})
		srv, err := NewServerDurable(st, opts)
		if err != nil {
			fmt.Printf("HELPER_ERR %v\n", err)
			os.Exit(1)
		}
		errc := make(chan error, 1)
		go func() { errc <- srv.Serve("127.0.0.1:0") }()
		for srv.Addr() == nil {
			time.Sleep(time.Millisecond)
		}
		fmt.Printf("ADDR %s\n", srv.Addr())
		<-errc // never: the parent kills this process with SIGKILL
	})
}

// TestCrashRecoveryKill9 is the crash-recovery e2e: a child process serves a
// durable store under chaos load, the parent SIGKILLs it mid-load (no drain,
// no fsync-on-close — the crash the WAL exists for), recovers the directory
// into a fresh store, and verifies that every acknowledged SET survived — the
// kill -9 check of the pipeline's LG group-commit task.
func TestCrashRecoveryKill9(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("SIGKILL semantics are POSIX")
	}
	forEachBatchShape(t, func(t *testing.T, _ *PipelineOptions) {
		dir := t.TempDir()
		shape := path.Base(t.Name()) // the helper serves in this batch shape
		cmd := exec.Command(os.Args[0], "-test.run=^TestCrashServerHelper$/^"+shape+"$", "-test.v")
		cmd.Env = append(os.Environ(), "DIDO_CRASH_HELPER=1", "DIDO_CRASH_DIR="+dir)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		defer cmd.Process.Kill() //nolint:errcheck // double-kill is fine

		var addr string
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "HELPER_ERR") {
				t.Fatalf("helper: %s", line)
			}
			if strings.HasPrefix(line, "ADDR ") {
				addr = strings.TrimPrefix(line, "ADDR ")
				break
			}
		}
		if addr == "" {
			cmd.Wait() //nolint:errcheck
			t.Fatal("helper never published its address")
		}
		// Keep draining so the child never blocks on a full pipe.
		go io.Copy(io.Discard, stdout) //nolint:errcheck

		// Chaos load: several clients hammer unique, never-rewritten keys
		// so each acked key has exactly one possible value at recovery.
		var (
			mu    sync.Mutex
			acked []int
			stop  = make(chan struct{})
			wg    sync.WaitGroup
		)
		const setters = 3
		for g := 0; g < setters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				c, err := DialOpts(addr, ClientOptions{Timeout: 150 * time.Millisecond, Retries: 2})
				if err != nil {
					return
				}
				defer c.Close()
				const batch = 16
				for next := g << 20; ; next += batch {
					select {
					case <-stop:
						return
					default:
					}
					qs := make([]Query, batch)
					for i := range qs {
						qs[i] = Query{Op: OpSet, Key: crashKey(next + i), Value: crashVal(next + i)}
					}
					if _, err := c.Do(qs); err != nil {
						return // killed mid-flight: unacked, not recorded
					}
					mu.Lock()
					for i := 0; i < batch; i++ {
						acked = append(acked, next+i)
					}
					mu.Unlock()
				}
			}(g)
		}
		time.Sleep(400 * time.Millisecond)
		if err := cmd.Process.Kill(); err != nil { // SIGKILL: no drain, no deferred fsync
			t.Fatal(err)
		}
		cmd.Wait() //nolint:errcheck // the kill is the expected exit
		close(stop)
		wg.Wait()

		mu.Lock()
		ackedKeys := append([]int(nil), acked...)
		mu.Unlock()
		if len(ackedKeys) == 0 {
			t.Fatal("no SETs were acked before the kill; load never ramped")
		}

		st := NewStore(StoreConfig{MemoryBytes: 32 << 20})
		srv, err := NewServerDurable(st, durableOpts(dir))
		if err != nil {
			t.Fatalf("recovery after kill -9: %v", err)
		}
		defer srv.Close()
		ds, _ := srv.DurabilityStats()
		lost := 0
		for _, k := range ackedKeys {
			if v, ok := st.Get(crashKey(k)); !ok || string(v) != string(crashVal(k)) {
				lost++
			}
		}
		if lost > 0 {
			t.Fatalf("kill -9 lost %d of %d acked SETs (recovery: %d records, torn %d bytes)",
				lost, len(ackedKeys), ds.RecoveredWALRecords, ds.RecoveredTornBytes)
		}
		t.Logf("%d acked SETs survived kill -9 (%d WAL records replayed in %v, torn tail %d bytes)",
			len(ackedKeys), ds.RecoveredWALRecords, ds.RecoveryDuration, ds.RecoveredTornBytes)
	})
}

func crashKey(i int) []byte { return []byte(fmt.Sprintf("crash-key-%08d", i)) }
func crashVal(i int) []byte {
	return []byte(fmt.Sprintf("crash-val-%08d-%s", i, strings.Repeat("y", 24)))
}
