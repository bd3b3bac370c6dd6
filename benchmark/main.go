// Command benchmark is the repo's one benchmark: four native-path
// workloads, six bounded end-to-end metrics and a per-layer ledger timed
// from outside the program. See README.md beside this file.
//
//	go run ./benchmark -seed 1                      # every workload, end-to-end metrics
//	go run ./benchmark -seed 1 -trace               # every workload, per-layer metrics
//	go run ./benchmark -workload join_agg -seed 7 -seconds 16 -trace 0
//	go run ./benchmark -compare a.json b.json       # two result files against the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
)

// resultFile is what -o writes and -compare reads. This benchmark claims
// no gain — it is the baseline later claims are measured with.
type resultFile struct {
	Claim *string   `json:"claim"`
	Runs  []*record `json:"runs"`
}

// manifest is BENCHMARK.json, generated from the catalogue so the two
// cannot drift (bench_test.go compares them).
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []manifestLoad `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"` // no bounds
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is the length of one timed pass under the driver.
const runSeconds = 16

// untracedSetups is how many times an untraced run sets the workload up;
// setup_s is their median.
const untracedSetups = 3

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"sh", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloadNames {
		m.Workloads = append(m.Workloads, manifestLoad{Name: w, Why: workloadWhy[w]})
	}
	return m
}

// joinTraceValue lets the driver's "--trace 0|1" and a bare "-trace" both
// reach one boolean flag.
func joinTraceValue(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func appendResults(path string, runs []*record) error {
	var rf resultFile
	if buf, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(buf, &rf); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	rf.Runs = append(rf.Runs, runs...)
	buf, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// printRecord prints every metric by name with its unit, then the
// contract's result line.
func printRecord(rec *record) error {
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := rec.Metrics[n]
		fmt.Printf("%-14s %-40s %16.6g %s\n", rec.Workload, n, v.Value, v.Unit)
	}
	if rec.Note != "" {
		fmt.Printf("%-14s first failure: %s\n", rec.Workload, rec.Note)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func run() error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run (default: all four, one after another)")
	seed := fs.Uint64("seed", 1, "the only source of randomness: data, literals, op order")
	seconds := fs.Float64("seconds", runSeconds, "length of the timed pass; whole op cycles are replayed until it has elapsed")
	trace := fs.Bool("trace", false, "record spans around layer calls and report the per-layer metrics")
	scale := fs.Float64("scale", 1, "table-size multiplier; the op cycle shrinks by its square root (tests use 0.01)")
	outDir := fs.String("out", "benchmark/out", "directory for trace files and durable data")
	verbose := fs.Bool("v", false, "log each phase's duration to standard error")
	results := fs.String("o", "", "append this run's records to a result file for -compare")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json as the catalogue defines it")
	if err := fs.Parse(joinTraceValue(os.Args[1:])); err != nil {
		return err
	}
	switch {
	case *printManifest:
		enc := json.NewEncoder(os.Stdout)
		enc.SetEscapeHTML(false) // the whys say "<=" and ">"
		enc.SetIndent("", "  ")
		return enc.Encode(buildManifest())
	case *compare:
		if fs.NArg() != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareFiles("BENCHMARK.json", fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	names := workloadNames
	if *workload != "" {
		names = []string{*workload}
	}
	var runs []*record
	for _, name := range names {
		cfg := config{workload: name, seed: *seed, seconds: *seconds, scale: *scale, trace: *trace, setups: untracedSetups, outDir: *outDir, verbose: *verbose}
		if cfg.trace {
			cfg.setups = 1 // setup_s is an end-to-end metric; a traced run reports none
		}
		rec, err := runWorkload(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := printRecord(rec); err != nil {
			return err
		}
		runs = append(runs, rec)
	}
	// Failed or wrong ops are reported in the result line ("correct",
	// "failed"), not through the exit code: the run itself completed.
	if *results != "" {
		return appendResults(*results, runs)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
