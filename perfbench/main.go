// Command perfbench is the repository's benchmark: it times the
// simulator's host cost end to end and layer by layer, and checks every
// output it times against a reference that does not come from the same
// run.
//
//	go run . -workload suite|replay|serve -seed N -seconds S -trace 0|1
//
// Each invocation runs one workload in a fresh process:
//
//   - suite: every experiments.IDs() entry at a fixed budget with cold
//     caches, as `brexp -exp all` runs it. Inputs are the paper's fixed
//     Table-2 data sets, so the seed does not apply.
//   - replay: a serial fixed list of spec.Build + sim.Run cells over nine
//     benchmarks captured from seeded data sets, covering every replay
//     kernel loop family, sampled (Tap) cells and cells the kernel
//     declines.
//   - serve: brserve in-process on loopback, driven by two closed-loop
//     clients with the documented request mix. It is run by hand and is
//     not one of BENCHMARK.json's workloads (see serverLayer).
//
// The timed phase repeats one fixed round of work; -seconds sets how
// many rounds from the workload's nominal round length (measured on a
// 2-vCPU Xeon VM), so a run does the same work on every machine and
// commit and takes about -seconds there. Times are medians over rounds and
// latency percentiles are exact over every attempted operation. Set-up
// is repeated setupReps times and its median reported. With -trace 1
// the rounds alternate untraced and traced; traced rounds record spans
// around each call into the program (and the program's own tracers
// through their public options), and the run prints per-layer metrics
// instead of end-to-end ones.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Lines before it are a
// human-readable report and a provenance stamp. run.py builds this
// command inside the checkout and runs it.
//
// -write-ref FILE re-records the reference outputs a workload checks
// against (suite report digests; replay cell counts for -seed) from a
// run that cross-checks the replay kernel against the interpretive
// runner.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// setupReps is how often a run sets its workload up; setup_s is the
	// median.
	setupReps = 5
	// minRounds is the fewest timed rounds a run makes, whatever
	// -seconds says, so every median has several samples.
	minRounds = 4
)

// op is one timed operation: a whole `brexp -exp all` (suite), a cell
// (replay) or an HTTP request (serve).
type op struct {
	lat    time.Duration
	events uint64 // simulated branch events the operation produced
	// cause is empty for a verified operation; otherwise why it failed
	// ("wrong_output", "deadline", "http_429", ...).
	cause string
}

func (o op) ok() bool { return o.cause == "" }

// roundOut is one timed round.
type roundOut struct {
	traced bool
	wall   time.Duration
	ops    []op
	// Runtime deltas over the round.
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
	// layer holds per-layer values a traced round measured.
	layer map[string]float64
}

// workload is one benchmark workload. The harness calls setUp
// setupReps times (tearDown between), then round repeatedly, check after
// each round outside its timing, finish once after the last round, and
// tearDown at the end.
type workload interface {
	setUp() error
	// round runs one fixed unit of timed work. tr is nil in untraced
	// rounds.
	round(tr *tracer) (*roundOut, error)
	// check verifies the round's outputs; it marks failed ops.
	check(r *roundOut) error
	// finish runs end-of-run verification over every round.
	finish(rounds []*roundOut) error
	// layers derives run-level per-layer values from the traced rounds
	// (totals and counts that are not per-round medians).
	layers(rounds []*roundOut) map[string]float64
	// unmeasured names per-layer metrics the workload cannot measure
	// from outside the program, with the reason.
	unmeasured() map[string]string
	// limit is the latency a failed operation is charged in
	// percentiles (0 = the slowest observed operation).
	limit() time.Duration
	// roundSeconds is the nominal length of one round.
	roundSeconds() float64
	tearDown()
}

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"events_per_s", "1/s"},
	{"req_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"ok_ratio", "ratio"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"cpu.capture_s", "s"},
	{"cpu.capture_events_per_s", "1/s"},
	{"trace.cache_hit_ratio", "ratio"},
	{"trace.cache_mb", "MB"},
	{"spec.build_us", "us"},
	{"spec.build_s", "s"},
	{"fastpath.cell_ratio", "ratio"},
	{"fastpath.gag_events_per_s", "1/s"},
	{"fastpath.pag_events_per_s", "1/s"},
	{"fastpath.pap_events_per_s", "1/s"},
	{"fastpath.generic_events_per_s", "1/s"},
	{"fastpath.static_events_per_s", "1/s"},
	{"fastpath.tap_events_per_s", "1/s"},
	{"sim.runner_events_per_s", "1/s"},
	{"sim.runmany_events_per_s", "1/s"},
	{"sim.events", "count"},
	{"sim.predictions", "count"},
	{"sim.mispredictions", "count"},
	{"experiments.cell_p50_ms", "ms"},
	{"experiments.cell_p90_ms", "ms"},
	{"experiments.sched_overhead_s", "s"},
	{"experiments.report_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace_overhead_ratio", "ratio"},
}

// serverLayer are the server's per-layer metrics. Only serve measures
// them, and serve is not one of BENCHMARK.json's workloads: the server's
// slot-acquisition deadlock (ROADMAP open item 1) fails a varying few of
// its requests in every run, so its failure count cannot repeat from run
// to run. Run by hand, serve prints these in its report, not in the
// result line.
var serverLayer = []metricDef{
	{"server.grid_p50_ms", "ms"},
	{"server.capture_ms", "ms"},
	{"server.replay_ms", "ms"},
	{"server.self_ms", "ms"},
	{"server.http_p50_ms", "ms"},
	{"server.stream_lines", "count"},
	{"server.refused", "count"},
	{"server.deadline_failures", "count"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	processStart := time.Now()
	var (
		name     = flag.String("workload", "", "workload: suite, replay or serve")
		seed     = flag.Uint64("seed", 1, "workload seed (replay data sets; serve order, tenants and uploads)")
		seconds  = flag.Int("seconds", 10, "length of the timed phase in seconds")
		traceArg = flag.Int("trace", 0, "1 = alternate traced rounds and print per-layer metrics")
		spansOut = flag.String("spans", "", "with -trace 1, write the recorded spans to this JSON file")
		rev      = flag.String("rev", "", "source revision to stamp on the result")
		writeRef = flag.String("write-ref", "", "record the workload's reference outputs to this file and exit")
	)
	flag.Parse()
	if err := run(processStart, *name, *seed, *seconds, *traceArg == 1, *spansOut, *rev, *writeRef); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "suite":
		return newSuite(), nil
	case "replay":
		return newReplay(seed)
	case "serve":
		return newServe(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want suite, replay or serve)", name)
}

func run(processStart time.Time, name string, seed uint64, seconds int, traced bool, spansOut, rev, writeRef string) error {
	if writeRef != "" {
		return writeReference(name, seed, writeRef)
	}
	w, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}

	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		begin := processStart
		if i > 0 {
			// Drop the previous set-up's state so set-ups do not stack.
			w.tearDown()
			runtime.GC()
			begin = time.Now()
		}
		if err := w.setUp(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(begin).Seconds())
	}

	var rounds []*roundOut
	var spans []spanRec
	steal0, total0 := cpuStat()
	n := max(minRounds, int(math.Round(float64(seconds)/w.roundSeconds())))
	for i := 0; i < n; i++ {
		r, recs, err := timedRound(w, i, traced && i%2 == 1)
		if err != nil {
			w.tearDown()
			return fmt.Errorf("round %d: %w", i, err)
		}
		rounds = append(rounds, r)
		spans = append(spans, recs...)
	}
	if err := w.finish(rounds); err != nil {
		w.tearDown()
		return fmt.Errorf("verification: %w", err)
	}
	w.tearDown()

	res, serverValues := summarize(w, rounds, setups, traced)
	steal1, total1 := cpuStat()
	stealShare := float64(steal1-steal0) / float64(max(total1-total0, 1))
	printReport(name, seed, seconds, traced, rev, w, rounds, setups, res, serverValues, stealShare)
	if traced && spansOut != "" {
		if err := writeSpans(spansOut, spans); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// timedRound runs and checks one round, with a GC beforehand so each
// round starts from the same heap.
func timedRound(w workload, i int, traced bool) (*roundOut, []spanRec, error) {
	var tr *tracer
	if traced {
		tr = newTracer(i)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	r, err := w.round(tr)
	wall := time.Since(t0)
	if err != nil {
		return nil, nil, err
	}
	runtime.ReadMemStats(&m1)
	r.traced = traced
	r.wall = wall
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.gcCycles = m1.NumGC - m0.NumGC
	r.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	if err := w.check(r); err != nil {
		return nil, nil, err
	}
	return r, tr.records(), nil
}

// summarize turns the rounds into the result object: end-to-end metrics
// from untraced rounds, or per-layer metrics when the run was traced. It
// also returns the serverLayer values the workload measured, which the
// report prints apart from the result.
func summarize(w workload, rounds []*roundOut, setups []float64, traced bool) (result, map[string]metricValue) {
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	var plain, tracedRounds []*roundOut
	for _, r := range rounds {
		if r.traced {
			tracedRounds = append(tracedRounds, r)
		} else {
			plain = append(plain, r)
		}
		for _, o := range r.ops {
			res.Attempted++
			if !o.ok() {
				res.Failed++
				if o.cause == causeWrong {
					res.Correct = false
				}
			}
		}
	}
	if !traced {
		for name, v := range endToEndValues(w, plain, setups) {
			res.Metrics[name] = v
		}
		return res, nil
	}
	values := map[string]float64{}
	for _, m := range slices.Concat(perLayer, serverLayer) {
		var xs []float64
		for _, r := range tracedRounds {
			if v, ok := r.layer[m.name]; ok {
				xs = append(xs, v)
			}
		}
		switch {
		case len(xs) == 0:
		case m.unit == "count":
			// Counts are exact: the first traced round's, not a median
			// that may average two rounds.
			values[m.name] = xs[0]
		default:
			values[m.name] = median(xs)
		}
	}
	for k, v := range w.layers(tracedRounds) {
		values[k] = v
	}
	var gcCycles, gcPause []float64
	for _, r := range plain {
		gcCycles = append(gcCycles, float64(r.gcCycles))
		gcPause = append(gcPause, float64(r.gcPauseNs)/1e6)
	}
	values["runtime.gc_cycles"] = median(gcCycles)
	values["runtime.gc_pause_ms"] = median(gcPause)
	values["trace_overhead_ratio"] = median(walls(tracedRounds)) / median(walls(plain))
	for _, m := range perLayer {
		res.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
	}
	serverValues := map[string]metricValue{}
	for _, m := range serverLayer {
		if v, ok := values[m.name]; ok {
			serverValues[m.name] = metricValue{Value: v, Unit: m.unit}
		}
	}
	return res, serverValues
}

func walls(rounds []*roundOut) []float64 {
	out := make([]float64, len(rounds))
	for i, r := range rounds {
		out[i] = r.wall.Seconds()
	}
	return out
}

func endToEndValues(w workload, rounds []*roundOut, setups []float64) map[string]metricValue {
	var eventRates, opRates, allocs, p50s, p99s []float64
	ok, attempted := 0, 0
	for _, r := range rounds {
		var ev uint64
		verified := 0
		for _, o := range r.ops {
			attempted++
			if o.ok() {
				ok++
				verified++
				ev += o.events
			}
		}
		eventRates = append(eventRates, float64(ev)/r.wall.Seconds())
		opRates = append(opRates, float64(verified)/r.wall.Seconds())
		allocs = append(allocs, float64(r.allocBytes)/1e6)
		lat := opSamples([]*roundOut{r}, w.limit())
		p50s = append(p50s, lat.quantile(0.50))
		p99s = append(p99s, lat.quantile(0.99))
	}
	values := map[string]float64{
		"setup_s":      median(setups),
		"wall_s":       median(walls(rounds)),
		"events_per_s": median(eventRates),
		"req_per_s":    median(opRates),
		"p50_ms":       median(p50s),
		"p99_ms":       median(p99s),
		"ok_ratio":     float64(ok) / float64(max(attempted, 1)),
		"alloc_mb":     median(allocs),
		"peak_rss_mb":  peakRSSMB(),
	}
	out := map[string]metricValue{}
	for _, m := range endToEnd {
		out[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
	}
	return out
}

// opSamples collects the latencies of every operation attempted in
// rounds.
func opSamples(rounds []*roundOut, limit time.Duration) samples {
	var lats []time.Duration
	var failed []bool
	for _, r := range rounds {
		for _, o := range r.ops {
			lats = append(lats, o.lat)
			failed = append(failed, !o.ok())
		}
	}
	return latencySamples(lats, failed, limit)
}

// peakRSSMB is the process's maximum resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// printReport writes the human-readable lines that precede the result:
// every metric with its unit, the latency sample count and the highest
// percentile the sample supports, failure causes, unmeasured layers and
// the provenance stamp.
func printReport(name string, seed uint64, seconds int, traced bool, rev string, w workload, rounds []*roundOut, setups []float64, res result, serverValues map[string]metricValue, stealShare float64) {
	causes := map[string]int{}
	var plain []*roundOut
	for _, r := range rounds {
		if !r.traced {
			plain = append(plain, r)
		}
		for _, o := range r.ops {
			if !o.ok() {
				causes[o.cause]++
			}
		}
	}
	fmt.Printf("workload %s seed %d: %d untraced + %d traced rounds for -seconds %d; set-ups %s s\n",
		name, seed, len(plain), len(rounds)-len(plain), seconds, fmtFloats(setups))
	fmt.Printf("round walls: %s s; CPU time stolen by the hypervisor during the rounds: %.1f%%\n",
		fmtFloats(walls(rounds)), 100*stealShare)
	one, all := opSamples(plain[:1], w.limit()), opSamples(plain, w.limit())
	fmt.Printf("latency samples: %d per round (p50_ms and p99_ms are medians of per-round exact percentiles; "+
		"highest with >=10 samples beyond: %s); %d over untraced rounds (p99 %.4g ms; highest with >=10 beyond: %s)\n",
		one.n(), one.highestSupported(), all.n(), all.quantile(0.99), all.highestSupported())
	for _, k := range sortedKeys(res.Metrics) {
		m := res.Metrics[k]
		fmt.Printf("  %-32s %16.6g %s\n", k, m.Value, m.Unit)
	}
	if len(serverValues) > 0 {
		fmt.Println("server layer (not in the result line):")
		for _, k := range sortedKeys(serverValues) {
			m := serverValues[k]
			fmt.Printf("  %-32s %16.6g %s\n", k, m.Value, m.Unit)
		}
	}
	fmt.Printf("operations: %d attempted, %d failed\n", res.Attempted, res.Failed)
	for _, c := range sortedKeys(causes) {
		fmt.Printf("  failure cause %-16s %d\n", c, causes[c])
	}
	if traced {
		um := w.unmeasured()
		for _, k := range sortedKeys(um) {
			fmt.Printf("  unmeasured %s (reported as 0): %s\n", k, um[k])
		}
	}
	stamp := map[string]any{
		"workload":   name,
		"seed":       seed,
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"revision":   rev,
		"traced":     traced,
	}
	b, _ := json.Marshal(stamp) // a map of plain values always marshals
	fmt.Println("stamp", string(b))
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// cpuStat returns the machine's stolen and total CPU time so far, in
// clock ticks, from the first line of /proc/stat (zeros when absent).
// Steal is time a virtual CPU waited for the hypervisor; it inflates
// wall times without any change in the program.
func cpuStat() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
