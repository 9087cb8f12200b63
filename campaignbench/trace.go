package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wsinterop/internal/artifact"
	"wsinterop/internal/campaign"
	"wsinterop/internal/framework"
	"wsinterop/internal/obs"
	"wsinterop/internal/services"
	"wsinterop/internal/wsdl"
)

// spanKind names what a span covers.
type spanKind uint8

const (
	spanSetup spanKind = iota
	spanCatalog
	spanPlan
	spanPass
	spanRun    // the timed run of classic, versions and faults
	spanWrite  // the checkpoint write run
	spanResume // the checkpoint resume run
	spanPublish
	spanGenerate
	spanCompile
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"setup", "catalog", "plan", "pass", "run", "write", "resume", "publish", "generate", "compile",
}

// span is one interval. Times are offsets from the tracer's epoch;
// parent indexes the tracer's boundary spans, -1 for none.
type span struct {
	kind       spanKind
	parent     int32
	start, end time.Duration
}

// tracer keeps every span in memory until the run ends. Boundary spans
// (setup, pass, phase) are few; the framework-call spans of the pass in
// progress are kept in leaves, summarized when the pass ends, and only
// the last pass's are written out. A nil *tracer records nothing.
type tracer struct {
	epoch  time.Time
	spans  []span
	open   atomic.Int32 // innermost open boundary span, parent of new leaves
	mu     sync.Mutex
	leaves []span
	last   []span
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.open.Store(-1)
	return t
}

// begin opens a boundary span. Boundary spans nest and are opened and
// closed by the benchmark's main goroutine only.
func (t *tracer) begin(kind spanKind) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{kind: kind, parent: t.open.Load(), start: time.Since(t.epoch)})
	t.open.Store(id)
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = time.Since(t.epoch)
	t.open.Store(t.spans[id].parent)
}

// leaf records one framework call that started at start and ends now.
// Campaign workers call it concurrently.
func (t *tracer) leaf(kind spanKind, start time.Time) {
	s := span{kind: kind, parent: t.open.Load(), start: start.Sub(t.epoch), end: time.Since(t.epoch)}
	t.mu.Lock()
	t.leaves = append(t.leaves, s)
	t.mu.Unlock()
}

// callStats is the count and summed duration of one kind of framework
// call within a pass.
type callStats struct {
	calls int
	busy  time.Duration
}

// endPass summarizes the finished pass's framework calls and keeps its
// spans as the last pass's.
func (t *tracer) endPass() [numSpanKinds]callStats {
	var stats [numSpanKinds]callStats
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.leaves {
		stats[s.kind].calls++
		stats[s.kind].busy += s.end - s.start
	}
	t.last, t.leaves = t.leaves, nil
	return stats
}

// write dumps the boundary spans and the last pass's framework-call
// spans as tab-separated text.
func (t *tracer) write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "id\tparent\tname\tstart_us\tend_us")
	for i, s := range append(t.spans, t.last...) {
		fmt.Fprintf(bw, "%d\t%d\t%s\t%.3f\t%.3f\n", i, s.parent, spanNames[s.kind],
			float64(s.start)/1e3, float64(s.end)/1e3)
	}
	return bw.Flush()
}

// tracedServer records a span around every Publish.
type tracedServer struct {
	framework.ServerFramework
	t *tracer
}

func (s tracedServer) Publish(def services.Definition) (*wsdl.Definitions, error) {
	start := time.Now()
	doc, err := s.ServerFramework.Publish(def)
	s.t.leaf(spanPublish, start)
	return doc, err
}

// tracedClient records a span around every generation and every
// verification (compilation) call.
type tracedClient struct {
	framework.ClientFramework
	t *tracer
}

func (c tracedClient) Generate(doc []byte) framework.GenerationResult {
	start := time.Now()
	res := c.ClientFramework.Generate(doc)
	c.t.leaf(spanGenerate, start)
	return res
}

func (c tracedClient) GenerateAnalyzed(a *framework.Analysis) framework.GenerationResult {
	start := time.Now()
	res := c.ClientFramework.GenerateAnalyzed(a)
	c.t.leaf(spanGenerate, start)
	return res
}

func (c tracedClient) Verify(u *artifact.Unit) []artifact.Diagnostic {
	start := time.Now()
	diags := c.ClientFramework.Verify(u)
	c.t.leaf(spanCompile, start)
	return diags
}

// wrapped returns the options that route the study's frameworks
// through the tracing wrappers.
func (t *tracer) wrapped() []campaign.Option {
	var servers []framework.ServerFramework
	for _, s := range framework.Servers() {
		servers = append(servers, tracedServer{s, t})
	}
	var clients []framework.ClientFramework
	for _, c := range framework.Clients() {
		clients = append(clients, tracedClient{c, t})
	}
	return []campaign.Option{campaign.WithServers(servers...), campaign.WithClients(clients...)}
}

// profiler runs each phase of a traced pass under its own span and CPU
// profile and credits the samples to layers.
type profiler struct {
	t *tracer
	// credit sums layer CPU over every phase; journal CPU is also kept
	// per phase, to split write from replay.
	credit               map[string]time.Duration
	journalWrite, replay time.Duration
}

func (p *profiler) phase(kind spanKind, run func() error) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return err
	}
	id := p.t.begin(kind)
	err := run()
	p.t.end(id)
	pprof.StopCPUProfile()
	samples, perr := parseProfile(buf.Bytes())
	if perr != nil {
		return perr
	}
	credit := attribute(samples)
	for l, d := range credit {
		p.credit[l] += d
	}
	switch kind {
	case spanWrite:
		p.journalWrite += credit["journal"]
	case spanResume:
		p.replay += credit["journal"]
	}
	return err
}

// cpuMeter runs phases directly while summing their CPU and wall time.
type cpuMeter struct {
	cpu, wall time.Duration
}

func (m *cpuMeter) phase(_ spanKind, run func() error) error {
	cpu, start := cpuTime(), time.Now()
	err := run()
	m.wall += time.Since(start)
	m.cpu += cpuTime() - cpu
	return err
}

// measureTraced is the traced run. After set-up and warm-up it runs
// pairs of passes for the window: an untraced pass, for the overhead
// baseline and pool utilization, then a traced pass with framework
// calls wrapped in spans, each phase under a CPU profile, memory
// statistics around the pass, and the runner's own counters. The two
// passes of a pair see the same phase of the machine, so the tracing
// overhead is the median of the per-pair ratios.
func measureTraced(ctx context.Context, w *workload, seconds int, log io.Writer) (*output, error) {
	tr := newTracer()
	t := &tally{log: log}
	info, err := prepare(ctx, w, tr, t)
	if err != nil {
		return nil, err
	}

	meter := &cpuMeter{}
	prof := &profiler{t: tr, credit: make(map[string]time.Duration)}
	var (
		overheads, resumes, journals []float64
		calls                        [numSpanKinds]callStats
		alloc, cycles                uint64
		counters                     map[string]int64
		passes                       int
	)
	ticksBefore, err := readTicks()
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for n := 0; n < minPasses || time.Now().Before(deadline); n++ {
		runtime.GC()
		plain, err := w.runPass(ctx, meter.phase)
		plainOK := t.add(err)
		if plainOK {
			resumes = append(resumes, plain.resume.Seconds())
			journals = append(journals, float64(plain.journalBytes)/1e6)
		}

		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		passSpan := tr.begin(spanPass)
		// Fresh framework instances every pass, as an untraced pass gets.
		out, err := w.runPass(ctx, prof.phase, tr.wrapped()...)
		tr.end(passSpan)
		runtime.ReadMemStats(&after)
		stats := tr.endPass()
		if !t.add(err) {
			continue
		}
		passes++
		if plainOK {
			overheads = append(overheads, out.wall.Seconds()/plain.wall.Seconds())
		}
		for k, s := range stats {
			calls[k].calls += s.calls
			calls[k].busy += s.busy
		}
		alloc += after.TotalAlloc - before.TotalAlloc
		cycles += uint64(after.NumGC - before.NumGC)
		counters = counterMap(out.metrics)
	}
	ticksAfter, err := readTicks()
	if err != nil {
		return nil, err
	}
	if err := writeSpans(w, tr); err != nil {
		return nil, err
	}

	per := func(x float64) float64 { return div(x, float64(passes)) }
	perPass := func(d time.Duration) float64 { return per(d.Seconds()) }
	ratio := func(num, den int64) float64 { return div(float64(num), float64(den)) }
	var total time.Duration
	for _, d := range prof.credit {
		total += d
	}
	m := map[string]metric{
		"typesys.catalog_s": {info.catalog.Seconds(), "s"},
		"plan.build_s":      {info.plan.Seconds(), "s"},
		"plan.groups":       {float64(info.groups), "count"},

		"publish.calls":      {per(float64(calls[spanPublish].calls)), "count"},
		"publish.busy_s":     {perPass(calls[spanPublish].busy), "s"},
		"publish.memo_ratio": {ratio(counters["campaign.publish.memoized"], counters["campaign.publish.total"]), "ratio"},
		"wsi.memo_ratio": {ratio(counters["campaign.wsi.memoized"],
			counters["campaign.wsi.memoized"]+counters["campaign.wsi.checks"]), "ratio"},
		"generate.calls":  {per(float64(calls[spanGenerate].calls)), "count"},
		"generate.busy_s": {perPass(calls[spanGenerate].busy), "s"},
		"compile.calls":   {per(float64(calls[spanCompile].calls)), "count"},
		"compile.busy_s":  {perPass(calls[spanCompile].busy), "s"},
		"test.memo_ratio": {ratio(counters["campaign.test.memoized"], counters["campaign.test.total"]), "ratio"},

		"journal.write_cpu_s":  {perPass(prof.journalWrite), "s"},
		"journal.replay_cpu_s": {perPass(prof.replay), "s"},
		"journal.records":      {float64(counters["journal.cells.executed"]), "count"},
		"journal.resume_s":     {median(resumes), "s"},
		"journal.mb":           {median(journals), "MB"},

		"transport.attempts": {float64(counters["transport.attempts"]), "count"},
		"transport.retries":  {float64(counters["transport.retries"]), "count"},
		"transport.errors":   {float64(sumPrefix(counters, "transport.errors.")), "count"},

		"faultinject.injected": {float64(counters["faultinject.injected"]), "count"},

		"runtime.alloc_mb":       {per(float64(alloc) / 1e6), "MB"},
		"runtime.gc_cycles":      {per(float64(cycles)), "count"},
		"runtime.gc_cpu_s":       {perPass(prof.credit["runtime.gc"]), "s"},
		"pool.utilization":       {div(meter.cpu.Seconds(), meter.wall.Seconds()*procs), "ratio"},
		"unattributed.cpu_s":     {perPass(prof.credit["unattributed"]), "s"},
		"trace.overhead_ratio":   {median(overheads), "ratio"},
		"trace.attributed_ratio": {div((total - prof.credit["unattributed"]).Seconds(), total.Seconds()), "ratio"},
		"pass.cpu_s":             {perPass(total), "s"},
		"machine.steal_share":    {stealShare(ticksBefore, ticksAfter), "ratio"},
	}
	for _, l := range cpuLayers {
		m[l+".cpu_s"] = metric{perPass(prof.credit[l]), "s"}
	}
	return t.report(m), nil
}

// cpuLayers are the layers reported as <layer>.cpu_s; journal CPU is
// reported split into write and replay, runtime.gc as runtime.gc_cpu_s.
var cpuLayers = []string{
	"typesys", "plan", "services", "shape", "framework", "wsdl", "xsd", "wsi", "artifact",
	"campaign.fold", "campaign.wire", "obs", "soap", "transport", "versions", "robustness",
	"faultinject", "bench",
}

// div is a / b, or 0 when b is 0.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func counterMap(s *obs.Snapshot) map[string]int64 {
	m := make(map[string]int64)
	if s != nil {
		for _, c := range s.Counters {
			m[c.Name] = c.Value
		}
	}
	return m
}

func sumPrefix(m map[string]int64, prefix string) int64 {
	var n int64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			n += v
		}
	}
	return n
}

// writeSpans dumps the run's spans under the work directory, one file
// per workload, replaced by the next traced run of that workload.
func writeSpans(w *workload, tr *tracer) error {
	f, err := os.Create(filepath.Join(w.workdir, "spans-"+w.name+".tsv"))
	if err != nil {
		return err
	}
	if err := tr.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
