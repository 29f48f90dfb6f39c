package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// hostInfo is the part of the run record that describes where it ran.
type hostInfo struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	ServerCPUs string `json:"server_cpus"`
	GenCPUs    string `json:"generator_cpus"`
	Pinned     bool   `json:"pinned"`
	Conns      int    `json:"conns"`

	taskset string
}

// pinEnv carries the host record across the re-exec under taskset.
const pinEnv = "DIDO_BENCHMARK_HOST"

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() []int {
	var mask [16]uint64 // 1024 CPUs
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0])))
	var cpus []int
	if errno == 0 {
		for i := 0; i < len(mask)*64; i++ {
			if mask[i/64]&(1<<(i%64)) != 0 {
				cpus = append(cpus, i)
			}
		}
	}
	if len(cpus) == 0 {
		for i := 0; i < runtime.NumCPU(); i++ {
			cpus = append(cpus, i)
		}
	}
	return cpus
}

func cpuList(cpus []int) string {
	s := make([]string, len(cpus))
	for i, c := range cpus {
		s[i] = strconv.Itoa(c)
	}
	return strings.Join(s, ",")
}

// splitCPUs gives the server the first ⌈n/2⌉ CPUs (at most 4) and the
// generator the next ones (at most 2). With one CPU there is nothing to split.
func splitCPUs(cpus []int) (server, gen []int) {
	n := len(cpus)
	if n < 2 {
		return cpus, cpus
	}
	ns := (n + 1) / 2
	if ns > 4 {
		ns = 4
	}
	ng := n - ns
	if ng > 2 {
		ng = 2
	}
	return cpus[:ns], cpus[ns : ns+ng]
}

// detectHost works out the CPU split. If taskset is available and this
// process is not yet confined to the generator's CPUs, it re-executes itself
// under taskset so that every runtime thread, and GOMAXPROCS with them,
// follows the mask; it returns only in the confined process (or unpinned).
func detectHost(root string) *hostInfo {
	if rec := os.Getenv(pinEnv); rec != "" {
		h := &hostInfo{}
		if err := json.Unmarshal([]byte(rec), h); err == nil {
			h.taskset, _ = exec.LookPath("taskset")
			return h
		}
	}
	cpus := allowedCPUs()
	server, gen := splitCPUs(cpus)
	h := &hostInfo{
		Commit:     commitOf(root),
		GoVersion:  runtime.Version(),
		NProc:      len(cpus),
		ServerCPUs: cpuList(server),
		GenCPUs:    cpuList(gen),
		Conns:      2,
	}
	if h.NProc < 2 {
		h.Conns = 1
	}
	ts, err := exec.LookPath("taskset")
	if err != nil || len(cpus) < 2 {
		return h
	}
	h.Pinned, h.taskset = true, ts
	rec, _ := json.Marshal(h) // plain struct of strings, ints and bools
	self, err := os.Executable()
	if err != nil {
		h.Pinned = false
		return h
	}
	argv := append([]string{"taskset", "-c", h.GenCPUs, self}, os.Args[1:]...)
	err = syscall.Exec(ts, argv, append(os.Environ(), pinEnv+"="+string(rec)))
	// Exec only returns on failure: carry on unpinned and say so.
	fmt.Fprintf(os.Stderr, "benchmark: taskset: %v; running unpinned\n", err)
	h.Pinned = false
	return h
}

// commitOf names the tree being measured. A driver checkout is not a git
// repository, so the answer may be "unknown".
func commitOf(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "-C", root, "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
		commit += "+dirty"
	}
	return commit
}
