// Command benchmark is the repository's serving benchmark: it runs
// cmd/dido-server as a separate process, drives it from this one process over
// real sockets, verifies every reply, and reports end-to-end metrics (or, with
// -trace 1, a per-layer time budget). See README.md beside this file.
//
// Run it through run.sh, which builds both binaries:
//
//	bash benchmark/run.sh --workload udp-get-zipf --seed 1 --seconds 8 --trace 0
//	bash benchmark/run.sh -all -repeat 5 -out benchmark/out/set-a.json
//	bash benchmark/run.sh -compare benchmark/out/set-a.json benchmark/out/set-b.json
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print the contract line last")
		seed         = flag.Int64("seed", 1, "seed of key choice, op mix and scan starts")
		seconds      = flag.Int("seconds", 8, "measured seconds per run")
		trace        = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		all          = flag.Bool("all", false, "run every workload, untraced then traced")
		repeat       = flag.Int("repeat", 1, "with -all: untraced runs per workload, seeds seed..seed+repeat-1")
		smoke        = flag.Bool("smoke", false, "with -all: 2 measured seconds per run")
		out          = flag.String("out", "", "with -all: write every run's record to this file")
		compare      = flag.Bool("compare", false, "compare two -out files given as arguments against the bounds in BENCHMARK.json")
		root         = flag.String("root", ".", "repository root (where BENCHMARK.json is)")
		serverBin    = flag.String("server", "", "dido-server binary to measure")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		regressed, err := compareFiles(os.Stdout, filepath.Join(*root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	if *serverBin == "" {
		fatal(fmt.Errorf("-server is required (run.sh passes it)"))
	}
	host := detectHost(*root) // re-executes under taskset; below runs pinned
	flags, err := serverFlags(*serverBin)
	if err != nil {
		fatal(err)
	}
	s := &session{
		serverBin: *serverBin, flags: flags, host: host,
		outDir: filepath.Join(*root, "benchmark", "out"),
		ramp:   time.Second, measure: time.Duration(*seconds) * time.Second,
	}
	if *smoke {
		s.ramp, s.measure = 500*time.Millisecond, 2*time.Second
	}
	if err := os.MkdirAll(s.outDir, 0o755); err != nil {
		fatal(err)
	}
	// A signal must leave nothing behind. The server carries a parent-death
	// signal, so exiting ends it; the replay's WAL directory is the only
	// scratch on disk.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "benchmark: interrupted")
		os.RemoveAll(replayWALDir(s.outDir))
		os.Exit(130)
	}()

	switch {
	case *workloadName != "":
		w, err := workloadByName(*workloadName)
		if err != nil {
			fatal(err)
		}
		res, err := s.runOne(&w, *seed, *trace != 0)
		if err != nil {
			fatal(err)
		}
		res.report(os.Stdout)
		fmt.Println(res.contractLine())
		if !res.Correct {
			os.Exit(1)
		}
	case *all:
		ok, err := s.runAll(*seed, *repeat, *out)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runOne runs one workload once and files its record under out/.
func (s *session) runOne(w *workloadSpec, seed int64, traced bool) (*result, error) {
	var res *result
	var err error
	suffix := ""
	if traced {
		res, err = s.runTraced(w, seed)
		suffix = "-trace"
	} else {
		res, err = s.runEndToEnd(w, seed)
	}
	if err == nil {
		err = res.checkMetricSet()
	}
	if err != nil {
		return nil, err
	}
	path := filepath.Join(s.outDir, fmt.Sprintf("result-%s-%d%s.json", w.name, seed, suffix))
	if err := writeJSON(path, res); err != nil {
		return nil, err
	}
	return res, nil
}

// runAll runs every workload repeat times untraced and once traced, printing
// each report, and reports whether every run was correct.
func (s *session) runAll(seed int64, repeat int, outPath string) (bool, error) {
	set := &resultSet{}
	ok := true
	for _, w := range workloads() {
		for i := 0; i <= repeat; i++ {
			traced := i == repeat
			runSeed := seed + int64(i)
			if traced {
				runSeed = seed
			}
			res, err := s.runOne(&w, runSeed, traced)
			if err != nil {
				return false, err
			}
			res.report(os.Stdout)
			set.Runs = append(set.Runs, res)
			ok = ok && res.Correct
		}
	}
	if outPath != "" {
		if err := writeJSON(outPath, set); err != nil {
			return false, err
		}
	}
	return ok, nil
}
