// Command snetbench is the repository's benchmark. It drives three
// workloads through the runtime's public entry points, checks every output,
// and prints the end-to-end metrics of an untraced run (--trace 0) or the
// per-layer metrics of a traced run (--trace 1), ending with one JSON line:
//
//	snetbench --workload stream|durable|render-wire|all --seed N --seconds S --trace 0|1
//
// Inputs are generated from --seed; the program under test sees only them.
// Run it from the repository root through snetbench/run.sh, which builds it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"snet/internal/simnet"
)

// outDir holds everything a run leaves behind: the build, scratch journal
// directories (removed at exit) and trace files. It is relative to the
// repository root the benchmark runs from.
const outDir = ".bench_build"

type runConfig struct {
	seed    uint64
	seconds time.Duration
	dir     string // scratch directory of this run
}

// result is what one workload run measured and what its checks found.
type result struct {
	metrics   map[string]float64
	attempted int
	// Failures, each counted against attempted.
	lost, dup, wrong, errors, deadLetters, badImages, faults int
	problems                                                 []string
	notes                                                    []string
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.metrics[name] = v }

// fail records a failed check that no counter above covers.
func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// absorb adds another pass's attempts and failures to r.
func (r *result) absorb(o *result) {
	r.attempted += o.attempted
	r.lost += o.lost
	r.dup += o.dup
	r.wrong += o.wrong
	r.errors += o.errors
	r.deadLetters += o.deadLetters
	r.badImages += o.badImages
	r.faults += o.faults
	r.problems = append(r.problems, o.problems...)
}

func (r *result) failed() int {
	return r.lost + r.dup + r.wrong + r.errors + r.deadLetters + r.badImages + r.faults + len(r.problems)
}

func (r *result) failedRatio() float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed()) / float64(r.attempted)
}

var spanKinds = []string{
	"setup", "saturate", "open-loop", "restart", "render",
	"Parse", "CompileProgram", "NewNetwork", "Start", "Recover", "Join",
	"Send", "Out", "box.inc", "box.mix", "box.hot", "box.cool", "worker.solve",
	"Exec", "fs.Write", "fs.Sync", "fs.ReadFile", "conn.Read", "conn.Write",
}

func run(workload string, cfg runConfig, tr *tracer) (*result, error) {
	switch workload {
	case "stream":
		return runStream(cfg, false, tr)
	case "durable":
		return runStream(cfg, true, tr)
	case "render-wire":
		return runRender(cfg, tr)
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

// exactCounts are the per-layer counts that must read the same with and
// without tracing, or the traced run measured a different program.
var exactCounts = []string{"core.entities", "core.box_calls_per_record", "journal.recovered_records"}

// runWorkload runs one workload and returns its JSON metrics, the result
// whose checks count, and an error only when the run could not finish.
func runWorkload(workload string, cfg runConfig, traced bool) (map[string]float64, *result, error) {
	if !traced {
		res, err := run(workload, cfg, nil)
		if err != nil {
			return nil, nil, err
		}
		report(workload, res, endToEnd)
		return pick(res, endToEnd), res, nil
	}
	base, err := run(workload, cfg, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("untraced pass: %w", err)
	}
	tr := newTracer(spanKinds...)
	res, err := run(workload, cfg, tr)
	if err != nil {
		return nil, nil, fmt.Errorf("traced pass: %w", err)
	}
	for _, name := range exactCounts {
		if a, b := base.metrics[name], res.metrics[name]; a != b {
			res.fail("%s reads %v untraced but %v traced", name, a, b)
		}
	}
	if workload == "render-wire" {
		lo, hi := base.metrics["wire.remote_execs_min"], base.metrics["wire.remote_execs_max"]
		if v := res.metrics["wire.remote_execs_per_render"]; v < lo || v > hi {
			res.fail("wire.remote_execs_per_render %.2f traced is outside the untraced range [%v, %v]", v, lo, hi)
		}
	}
	res.set("trace.overhead_share", 1-res.metrics["ops_per_s"]/base.metrics["ops_per_s"])
	// Latency is reported from the untraced pass, like the gated metrics.
	for _, m := range perLayer {
		if m.layer == "e2e" {
			res.set(m.name, base.metrics[m.name])
		}
	}
	tb := simnet.PaperTestbed(1)
	res.set("simnet.record_overhead_us", tb.RecordOverhead*1e6)
	res.set("simnet.box_tax", tb.BoxTax)
	res.absorb(base)
	res.set("core.errors", float64(res.errors))
	res.set("core.dead_letters", float64(res.deadLetters))
	res.set("failed_ratio", res.failedRatio())
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", workload, cfg.seed))
	meta := map[string]any{"workload": workload, "seed": cfg.seed, "seconds": cfg.seconds.Seconds()}
	if err := tr.write(path, meta); err != nil {
		return nil, nil, fmt.Errorf("write trace: %w", err)
	}
	res.note("spans written to %s", path)
	report(workload, res, perLayer)
	return pick(res, perLayer), res, nil
}

// pick returns the catalogue's metrics from a result; a metric of a layer
// the workload bypasses reads 0.
func pick(r *result, ms []metric) map[string]float64 {
	out := map[string]float64{}
	for _, m := range ms {
		out[m.name] = r.metrics[m.name]
	}
	return out
}

// aliases are the workload-specific names of the end-to-end metrics.
var aliases = map[string][][3]string{
	"stream":      {{"records_per_s", "ops_per_s", "rec/s"}, {"cpu_us_per_record", "cpu_us_per_op", "us"}},
	"durable":     {{"records_per_s", "ops_per_s", "rec/s"}, {"cpu_us_per_record", "cpu_us_per_op", "us"}, {"recover_s", "restart_s", "s"}},
	"render-wire": {{"renders_per_s", "ops_per_s", "1/s"}, {"cpu_us_per_render", "cpu_us_per_op", "us"}},
}

// report prints the human-readable result: every metric by name and unit,
// the checks, and the notes.
func report(workload string, r *result, ms []metric) {
	fmt.Printf("== %s ==\n", workload)
	for _, m := range ms {
		where := m.layer
		if m.moves != "" {
			where += " -> " + m.moves + " on " + m.on
		}
		fmt.Printf("  %-34s %14.6g %-6s [%s]\n", m.name, r.metrics[m.name], m.unit, where)
	}
	if slices.Equal(ms, endToEnd) {
		for _, a := range aliases[workload] {
			fmt.Printf("  %-34s %14.6g %-6s (= %s)\n", a[0], r.metrics[a[1]], a[2], a[1])
		}
		for _, m := range perLayer {
			if _, ok := r.metrics[m.name]; ok && m.layer == "e2e" {
				fmt.Printf("  %-34s %14.6g %-6s (reported, not gated)\n", m.name, r.metrics[m.name], m.unit)
			}
		}
	}
	fmt.Printf("  %-34s %14.6g %-6s (%d failed of %d attempted)\n", "failed_ratio", r.failedRatio(), "ratio",
		r.failed(), r.attempted)
	fmt.Printf("  checks: lost %d, duplicated %d, wrong %d, runtime errors %d, dead letters %d, bad images %d, wire faults %d\n",
		r.lost, r.dup, r.wrong, r.errors, r.deadLetters, r.badImages, r.faults)
	for _, p := range r.problems {
		fmt.Printf("  FAILED: %s\n", p)
	}
	for _, n := range r.notes {
		fmt.Printf("  note: %s\n", n)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func unitOf(name string) string {
	for _, m := range append(slices.Clone(endToEnd), perLayer...) {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

func main() {
	workload := flag.String("workload", "", "stream | durable | render-wire | all")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	manifest := flag.Bool("manifest", false, "print the BENCHMARK.json this catalogue defines")
	flag.Parse()
	if *manifest {
		printManifest()
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "snetbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	out := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, w := range names {
		dir := filepath.Join(outDir, fmt.Sprintf("run-%s-%d", w, os.Getpid()))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "snetbench:", err)
			os.Exit(1)
		}
		cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, dir: dir}
		metrics, res, err := runWorkload(w, cfg, *trace == 1)
		os.RemoveAll(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "snetbench: %s: %v\n", w, err)
			os.Exit(1)
		}
		out.Attempted += res.attempted
		out.Failed += res.failed()
		for name, v := range metrics {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				res.fail("%s is not a number", name)
				out.Failed++
				v = 0
			}
			key := name
			if len(names) > 1 {
				key = w + "/" + name
			}
			out.Metrics[key] = jsonMetric{Value: v, Unit: unitOf(name)}
		}
	}
	out.Correct = out.Failed == 0
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "snetbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// printManifest writes BENCHMARK.json from the metric catalogue.
func printManifest() {
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	conv := func(ms []metric, bounded bool) []entry {
		var out []entry
		for _, m := range ms {
			e := entry{Name: m.name, Unit: m.unit, Better: m.better}
			if bounded {
				b := m.bound
				e.Bound = &b
			}
			out = append(out, e)
		}
		return out
	}
	var wls []wl
	for _, w := range workloads {
		wls = append(wls, wl{w.name, w.why})
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}{[]string{"bash", "snetbench/run.sh"}, []string{"snetbench"}, runSeconds, wls,
		conv(endToEnd, true), conv(perLayer, false)}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "snetbench:", err)
		os.Exit(1)
	}
	fmt.Println(strings.TrimSpace(string(b)))
}
