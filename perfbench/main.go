// Command perfbench is xtenergy's benchmark. It runs one named workload
// (characterize, explore or daemon) in-process, checks every output
// against goldens or the in-process rendering, and prints each metric by
// name and unit; the last line of stdout is one JSON object:
//
//	{"correct":..., "attempted":..., "failed":..., "metrics":{...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// tracing. With --trace 1 the run also makes a traced phase that times
// calls into each layer's public functions from this package and
// reports per-layer metrics. See README.md for the workloads and the
// layer-to-metric predictions.
//
//	go run . --workload explore --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"xtenergy/internal/rtlpower"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 3

type runConfig struct {
	seed    int64
	seconds int
	trace   bool
	workdir string
	epoch   time.Time
}

// more reports whether the untraced phase runs another round: until its
// rounds add up to --seconds (half of it with --trace 1), and for at
// least minRounds, so that a p95 rests on 10 operations. Rounds run in
// the seed's fixed order, so every run does a prefix of the same
// sequence of operations. The traced phase then runs as many rounds as
// the untraced one did.
func (rc *runConfig) more(ph *phase, minRounds int) bool {
	budget := float64(rc.seconds)
	if rc.trace {
		budget /= 2
	}
	return len(ph.rounds) < minRounds || sum(ph.rounds) < budget
}

// tracedRounds is how many rounds the traced phase runs.
func (rc *runConfig) tracedRounds(untraced *phase) int {
	if !rc.trace {
		return 0
	}
	return len(untraced.rounds)
}

// phase collects one phase's measurements.
type phase struct {
	lat               []float64 // per-operation latency, ms (untraced only)
	rounds            []float64 // per-round wall time, s
	rss               []float64 // per-round peak resident set, MB
	attempted, failed int
}

// runRound runs one round's n operations in a closed loop, each sent as
// soon as the last one returns, and records the round in ph. do reports
// whether operation i's output was correct.
//
// The load is one caller. On the 2-core host the benchmark was
// calibrated on, two callers left no core for the GC and the rest of the
// machine: run-to-run explore throughput varied by up to 40% and the
// daemon's p99 by 30%, against about 7% with one caller.
func runRound(n int, do func(i int) bool, ph *phase) {
	timeRound(ph, func() {
		for i := 0; i < n; i++ {
			if !do(i) {
				ph.failed++
			}
		}
	})
	ph.attempted += n
}

// timeRound runs one round from a collected heap and records its wall
// time and peak memory in ph, so no round pays for the previous one's
// garbage.
func timeRound(ph *phase, round func()) {
	runtime.GC()
	resetPeakRSS()
	t0 := time.Now()
	round()
	ph.rounds = append(ph.rounds, time.Since(t0).Seconds())
	ph.rss = append(ph.rss, peakRSSMB())
}

// result is what a workload hands back to main.
type result struct {
	setup  []float64 // seconds per set-up
	main   phase     // untraced phase
	traced phase     // traced phase (--trace 1): rounds only
	spans  []span
	// layer holds per-layer metrics only the workload can compute
	// (memo counters, daemon round-trip overheads).
	layer map[string]float64
	notes []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef is one reported metric. BENCHMARK.json lists the same
// names, units and directions (TestBenchmarkJSONMatches).
type metricDef struct{ name, unit, better string }

// endToEnd lists the metrics --trace 0 reports, in print order.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"flow_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p95_ms", "ms", "lower"},
	{"ok_frac", "frac", "higher"},
	{"rss_peak_mb", "MB", "lower"},
}

// perLayer lists the metrics --trace 1 reports, in print order.
var perLayer = []metricDef{
	{"workloads.lookup_ms", "ms", "lower"},
	{"procgen.generate_us", "us", "lower"},
	{"asm.assemble_us", "us", "lower"},
	{"plan.build_us", "us", "lower"},
	{"iss.new_us", "us", "lower"},
	{"iss.run_busy_s", "s", "lower"},
	{"iss.minstr_per_s", "Minstr/s", "higher"},
	{"rtlpower.consume_busy_s", "s", "lower"},
	{"rtlpower.mcycles_per_s", "Mcycles/s", "higher"},
	{"core.characterize_s", "s", "lower"},
	{"core.measure_leg_ms", "ms", "lower"},
	{"core.fit_ms", "ms", "lower"},
	{"core.extract_us", "us", "lower"},
	{"explore.evaluate_ms", "ms", "lower"},
	{"xlint.analyze_ms", "ms", "lower"},
	{"engine.hit_us", "us", "lower"},
	{"engine.miss_ms", "ms", "lower"},
	{"memo.hit_ratio", "frac", "higher"},
	{"memo.evictions", "count", "lower"},
	{"memo.disk_bytes", "B", "lower"},
	{"xpowerd.rtt_overhead_us", "us", "lower"},
	{"xpowerd.health_rtt_us", "us", "lower"},
	{"xpowerd.queue_depth_max", "count", "lower"},
	{"xpowerd.shed", "count", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// shareLayers are the layers whose share of operation time a traced run
// prints.
var shareLayers = []string{"workloads", "procgen", "asm", "plan", "iss", "rtlpower", "core", "engine", "xpowerd"}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "characterize, explore or daemon")
	seed := flag.Int64("seed", 1, "seed all inputs are generated from")
	seconds := flag.Int("seconds", 20, "run length: sizes the fixed operation list")
	traceFlag := flag.Int("trace", 0, "1 adds a traced phase and reports per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for the run's temp dir and span file")
	updateGolden := flag.String("update-golden", "", "recompute the goldens into this file and exit")
	flag.Parse()

	if *updateGolden != "" {
		if err := writeGolden(*updateGolden); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	rc := &runConfig{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, workdir: *workdir, epoch: time.Now()}
	runners := map[string]func(*runConfig) (*result, error){
		"characterize": runCharacterize,
		"explore":      runExplore,
		"daemon":       runDaemon,
	}
	runner, ok := runners[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q (characterize, explore, daemon)\n", *workload)
		return 2
	}
	host := hostFacts()
	fmt.Printf("host: %s\n", host)
	res, err := runner(rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	out := output{
		Attempted: res.main.attempted + res.traced.attempted,
		Failed:    res.main.failed + res.traced.failed,
		Metrics:   map[string]metric{},
	}
	out.Correct = out.Attempted > 0 && out.Failed == 0
	for _, n := range res.notes {
		fmt.Println(n)
	}
	if rc.trace {
		vals := layerMetrics(res)
		for _, m := range perLayer {
			out.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
		path := filepath.Join(rc.workdir, "trace", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		header := map[string]any{"workload": *workload, "seed": *seed, "seconds": *seconds, "host": host}
		if err := writeSpans(path, header, res.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Printf("spans: %d written to %s\n", len(res.spans), path)
		printMetrics(perLayer, out.Metrics)
	} else {
		vals := endToEndMetrics(res)
		for _, m := range endToEnd {
			out.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
		printMetrics(endToEnd, out.Metrics)
	}
	line, err := json.Marshal(&out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

func printMetrics(defs []metricDef, ms map[string]metric) {
	for _, d := range defs {
		fmt.Printf("  %-26s %14.6g %s\n", d.name, ms[d.name].Value, d.unit)
	}
}

func endToEndMetrics(res *result) map[string]float64 {
	p := &res.main
	vals := map[string]float64{
		"setup_s":        median(res.setup),
		"flow_s":         median(p.rounds),
		"latency_p50_ms": median(p.lat),
		"rss_peak_mb":    median(p.rss),
	}
	if w := sum(p.rounds); w > 0 {
		vals["ops_per_s"] = float64(len(p.lat)) / w
	}
	// p95 is the tail reported: p99 rests on 10-15 operations per run and
	// moved by a factor of two between runs of the same work; p95 moved
	// by a few percent. The other percentiles are printed for reference.
	asc := sorted(p.lat)
	fmt.Printf("latency over %d operations in %d rounds:", len(p.lat), len(p.rounds))
	for _, q := range []float64{0.50, 0.90, 0.95, 0.99} {
		if v, ok := percentile(asc, q); ok {
			fmt.Printf(" p%g %.4g ms", 100*q, v)
			if q == 0.95 {
				vals["latency_p95_ms"] = v
			}
		}
	}
	fmt.Println()
	if r := sorted(p.rounds); len(r) > 0 {
		fmt.Printf("round s: min %.4g  q1 %.4g  median %.4g  q3 %.4g  max %.4g\n",
			r[0], r[len(r)/4], median(r), r[3*len(r)/4], r[len(r)-1])
	}
	if p.attempted > 0 {
		vals["ok_frac"] = float64(p.attempted-p.failed) / float64(p.attempted)
	}
	return vals
}

// layerMetrics derives the per-layer metrics from the traced phase's
// spans plus the values only the workload could measure.
func layerMetrics(res *result) map[string]float64 {
	self := selfTimes(res.spans)
	calls := byName(res.spans, self)
	med := func(name string, scale float64) float64 { return scale * medianCall(calls, name) }
	m := map[string]float64{
		"workloads.lookup_ms":   med("workloads.lookup", 1e3),
		"procgen.generate_us":   med("procgen.generate", 1e6),
		"asm.assemble_us":       med("asm.assemble", 1e6),
		"plan.build_us":         med("plan.build", 1e6),
		"iss.new_us":            med("iss.new", 1e6),
		"core.characterize_s":   med("core.characterize", 1),
		"core.measure_leg_ms":   med("core.measure_leg", 1e3),
		"core.extract_us":       med("core.extract", 1e6),
		"explore.evaluate_ms":   med("explore.evaluate", 1e3),
		"xlint.analyze_ms":      med("xlint.analyze", 1e3),
		"engine.hit_us":         med("engine.hit", 1e6),
		"engine.miss_ms":        med("engine.miss", 1e3),
		"xpowerd.health_rtt_us": med("xpowerd.health", 1e6),
	}
	if cs := calls["core.characterize"]; cs != nil {
		m["core.fit_ms"] = 1e3 * median(cs.selfs)
	}
	if cs := calls["iss.run"]; cs != nil && cs.self > 0 {
		m["iss.run_busy_s"] = cs.self
		m["iss.minstr_per_s"] = float64(cs.work) / cs.self / 1e6
	}
	var busy float64
	var cycles uint64
	for _, n := range []string{"rtlpower.consume", "rtlpower.finish"} {
		if cs := calls[n]; cs != nil {
			busy += sum(cs.durs)
			cycles += cs.work
		}
	}
	if busy > 0 {
		m["rtlpower.consume_busy_s"] = busy
		m["rtlpower.mcycles_per_s"] = float64(cycles) / busy / 1e6
	}
	shares := layerShares(res.spans, self)
	// Tracing overhead: every round does the same operations, so
	// throughput compares as time inside operations per round, untraced
	// phase against traced phase.
	var opTime float64
	for i := range res.spans {
		if res.spans[i].Kind == kindOp {
			opTime += res.spans[i].dur().Seconds()
		}
	}
	if nu, nt := len(res.main.rounds), len(res.traced.rounds); nu > 0 && nt > 0 && opTime > 0 {
		m["trace.overhead_pct"] = 100 * (1 - (sum(res.main.lat)/1e3/float64(nu))/(opTime/float64(nt)))
	}
	for k, v := range res.layer {
		m[k] = v
	}
	var parts []string
	for _, l := range shareLayers {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", l, shares[l]))
	}
	fmt.Printf("layer shares of operation time: %s\n", strings.Join(parts, ", "))
	return m
}

// Peak memory is measured per round: the kernel's resident high-water
// mark is reset before a round and read after it, and rss_peak_mb is the
// median round's peak. The process-wide peak is set by whichever round's
// garbage happened to crest before a GC cycle, and moved by 60% between
// runs of the same work.

// resetPeakRSS restarts the high-water mark; where the kernel does not
// support it, peaks stay process-wide.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the resident high-water mark since the last reset.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostFacts identifies the measuring host. Runs on different kernel
// tiers or CPUs are not comparable.
func hostFacts() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("kernel=%s gomaxprocs=%d nproc=%d go=%s cpu=%q",
		rtlpower.SelectedKernel(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), cpu)
}
