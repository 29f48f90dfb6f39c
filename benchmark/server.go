package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one dido-server child process.
type serverProc struct {
	cmd     *exec.Cmd
	args    []string
	udp     string
	resp    string // empty unless the workload speaks RESP
	admin   string
	log     bytes.Buffer
	spawned time.Time
	exited  chan struct{} // closed once the process has been waited for
	http    http.Client
}

// serverFlags probes `dido-server -h` for the flags the binary accepts, so a
// later change that deletes -pipeline or -adapt (one execution path) is
// measured without editing the benchmark.
func serverFlags(bin string) (map[string]bool, error) {
	out, err := exec.Command(bin, "-h").CombinedOutput()
	if len(out) == 0 && err != nil {
		return nil, fmt.Errorf("probe %s -h: %w", bin, err)
	}
	flags := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\s+-([a-z0-9-]+)`).FindAllSubmatch(out, -1) {
		flags[string(m[1])] = true
	}
	for _, need := range []string{"addr", "mem", "admin"} {
		if !flags[need] {
			return nil, fmt.Errorf("%s has no -%s flag", bin, need)
		}
	}
	return flags, nil
}

// freePort asks the kernel for an unused loopback port of the given network.
// The port is released before the server binds it; nothing else on this host
// is racing for loopback ports during a run.
func freePort(network string) (string, error) {
	if network == "udp" {
		c, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		defer c.Close()
		return c.LocalAddr().String(), nil
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer spawns the server for w, pinned to the host's server CPUs, and
// returns once its listeners are bound. Only the flags the workload needs are
// passed; every other flag keeps its default so that a change of default is
// measured.
func startServer(bin string, flags map[string]bool, w *workloadSpec, h *hostInfo) (*serverProc, error) {
	s := &serverProc{http: http.Client{Timeout: 2 * time.Second}}
	var err error
	if s.udp, err = freePort("udp"); err != nil {
		return nil, err
	}
	if s.admin, err = freePort("tcp"); err != nil {
		return nil, err
	}
	s.args = []string{"-addr", s.udp, "-mem", strconv.FormatInt(w.memBytes, 10), "-admin", s.admin}
	if w.resp {
		if s.resp, err = freePort("tcp"); err != nil {
			return nil, err
		}
		s.args = append(s.args, "-resp", s.resp)
	}
	if flags["stats-interval"] {
		s.args = append(s.args, "-stats-interval", "0")
	}
	if flags["pipeline"] {
		s.args = append(s.args, "-pipeline", "on")
	}
	if w.adapt && flags["adapt"] {
		s.args = append(s.args, "-adapt")
	}
	argv := append([]string{bin}, s.args...)
	if h.Pinned {
		argv = append([]string{h.taskset, "-c", h.ServerCPUs}, argv...)
	}
	s.cmd = exec.Command(argv[0], argv[1:]...)
	s.cmd.Stdout = &s.log
	s.cmd.Stderr = &s.log
	// If the harness is killed outright the server must not outlive it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s.spawned = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn server: %w", err)
	}
	s.exited = make(chan struct{})
	go func() {
		_ = s.cmd.Wait() // how the server exited is not news: it is killed on every path
		close(s.exited)
	}()
	// The admin listener binds after the UDP and RESP ones, so a healthy
	// admin endpoint means every socket the workload needs is up.
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := s.http.Get("http://" + s.admin + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) || !s.alive() {
			s.stop()
			return nil, fmt.Errorf("server did not come up: %v\n%s", err, s.log.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *serverProc) alive() bool {
	select {
	case <-s.exited:
		return false
	default:
		return true
	}
}

// stop ends the server and returns once it has exited. Safe to call twice.
func (s *serverProc) stop() {
	if s.exited == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine
	select {
	case <-s.exited:
	case <-time.After(3 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// scrape reads /metrics into name{labels} → value.
func (s *serverProc) scrape() (map[string]float64, error) {
	body, err := s.fetch("/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	return parseMetrics(bytes.NewReader(body))
}

func parseMetrics(r io.Reader) (map[string]float64, error) {
	m := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// fetch returns the body of an admin endpoint such as /trace.
func (s *serverProc) fetch(path string) ([]byte, error) {
	resp, err := s.http.Get("http://" + s.admin + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// procUsage reads what the kernel accounts to the server process: CPU
// seconds consumed so far and the peak resident set in MiB.
func (s *serverProc) procUsage() (cpuSeconds, peakRSSMiB float64, err error) {
	pid := s.cmd.Process.Pid
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the whole line, in clock ticks (100/s on Linux).
	rest := stat[bytes.LastIndexByte(stat, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	cpuSeconds = (ut + st) / 100
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return cpuSeconds, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			kb, _ := strconv.ParseFloat(strings.Fields(line)[1], 64)
			peakRSSMiB = kb / 1024
		}
	}
	return cpuSeconds, peakRSSMiB, nil
}
