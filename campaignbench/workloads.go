package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"wsinterop/internal/campaign"
	"wsinterop/internal/obs"
	"wsinterop/internal/report"
	"wsinterop/internal/typesys"
)

// Slice counts of the seeded WithShard slices. A 1/16 interleaved slice
// of the version matrix is ~20k wire cells (~1.2 s a pass); a 1/200
// slice of the fault matrix is ~4.6k cells (~1.3 s a pass, 2.7 GB
// allocated). Both keep a pass near one second, so a run holds several
// timed passes, and both slices are large enough that every server and
// every outcome class is present in every slice.
const (
	versionShards = 16
	faultShards   = 200
)

// workload is one benchmark scenario: the campaign configuration a
// seed selects, one timed pass, and the oracle that checks it.
type workload struct {
	name string
	// shards > 0 restricts the campaign to slice index of shards.
	shards, index int
	workdir       string
	// plan is resolved once in setup and adopted by every pass of the
	// classic and checkpoint workloads (the -serve steady state).
	plan *campaign.Plan
	// expect is the literal-path result of the version or fault matrix,
	// computed by a separate process; every pass must reproduce it.
	expect []byte
}

func newWorkload(name string, seed int64, workdir string) (*workload, error) {
	w := &workload{name: name, workdir: workdir}
	switch name {
	case "classic", "checkpoint":
	case "versions":
		w.shards = versionShards
	case "faults":
		w.shards = faultShards
	default:
		return nil, fmt.Errorf("unknown workload %q (want classic, checkpoint, versions or faults)", name)
	}
	if w.shards > 0 {
		n := int64(w.shards)
		w.index = int((seed%n + n) % n)
	}
	return w, nil
}

// usesPlan reports whether the workload runs the planned classic
// campaign; the version and fault runners do not consult the plan.
func (w *workload) usesPlan() bool { return w.name == "classic" || w.name == "checkpoint" }

func (w *workload) options(extra ...campaign.Option) []campaign.Option {
	opts := []campaign.Option{campaign.WithWorkers(procs)}
	if w.shards > 0 {
		opts = append(opts, campaign.WithShard(w.index, w.shards))
	}
	return append(opts, extra...)
}

// setupInfo is what setup measured.
type setupInfo struct {
	catalog, plan time.Duration
	groups        int
}

// setup synthesizes the class catalogs and, for the planned workloads,
// builds the execution plan cold. tr, when non-nil, records the spans.
func (w *workload) setup(tr *tracer) (setupInfo, error) {
	var info setupInfo
	defer tr.end(tr.begin(spanSetup))
	sp := tr.begin(spanCatalog)
	start := time.Now()
	typesys.JavaCatalog()
	typesys.CSharpCatalog()
	info.catalog = time.Since(start)
	tr.end(sp)
	if !w.usesPlan() {
		return info, nil
	}
	sp = tr.begin(spanPlan)
	start = time.Now()
	r := campaign.New(w.options()...)
	plan, err := r.ExecutionPlan()
	info.plan = time.Since(start)
	tr.end(sp)
	if err != nil {
		return info, err
	}
	w.plan = plan
	if tr == nil {
		return info, nil
	}
	// The group count is a per-layer figure only: PlanSummary, an entry
	// point outside the benchmark's driving set, runs on traced runs
	// alone, never inside a timed set-up probe.
	sum, err := r.PlanSummary()
	if err != nil {
		return info, err
	}
	info.groups = sum.Shapes
	return info, nil
}

// reference runs the literal path — every client re-parses the WSDL
// bytes and nothing is memoized — and returns its matrix as JSON.
func (w *workload) reference(ctx context.Context) ([]byte, error) {
	r := campaign.New(w.options(campaign.WithReparse(), campaign.WithoutDedup())...)
	switch w.name {
	case "versions":
		res, err := r.RunVersions(ctx)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	case "faults":
		res, err := r.RunRobustness(ctx)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	}
	return nil, fmt.Errorf("workload %s has no literal-path reference: its oracle is the paper's ground truth", w.name)
}

// phaseFunc runs one phase of a pass: the whole pass, or the write and
// resume halves of a checkpoint pass. The untraced benchmark runs the
// phase directly; the traced run wraps it in spans and a CPU profile.
type phaseFunc func(kind spanKind, run func() error) error

func direct(_ spanKind, run func() error) error { return run() }

// passOutput is what one pass produced.
type passOutput struct {
	// wall is the timed campaign run: the write run on checkpoint.
	wall  time.Duration
	cells int
	// resume and journalBytes are set on checkpoint only.
	resume       time.Duration
	journalBytes int64
	// metrics is the counter snapshot of the timed run's runner.
	metrics *obs.Snapshot
}

// runPass executes one pass. A non-nil error means the pass failed:
// the campaign errored or the oracle rejected its result.
func (w *workload) runPass(ctx context.Context, phase phaseFunc, extra ...campaign.Option) (passOutput, error) {
	switch w.name {
	case "classic":
		return w.classicPass(ctx, phase, extra)
	case "checkpoint":
		return w.checkpointPass(ctx, phase, extra)
	case "versions":
		return w.versionsPass(ctx, phase, extra)
	default:
		return w.faultsPass(ctx, phase, extra)
	}
}

func (w *workload) classicPass(ctx context.Context, phase phaseFunc, extra []campaign.Option) (passOutput, error) {
	var out passOutput
	r := campaign.New(w.options(extra...)...)
	if err := r.AdoptPlan(w.plan); err != nil {
		return out, err
	}
	var res *campaign.Result
	err := phase(spanRun, func() (err error) {
		start := time.Now()
		res, err = r.Run(ctx)
		out.wall = time.Since(start)
		return err
	})
	if err != nil {
		return out, err
	}
	out.cells, out.metrics = res.TotalTests, r.Metrics()
	return out, checkPaper(res)
}

func (w *workload) checkpointPass(ctx context.Context, phase phaseFunc, extra []campaign.Option) (out passOutput, err error) {
	dir, err := os.MkdirTemp(w.workdir, "checkpoint-")
	if err != nil {
		return out, err
	}
	defer func() {
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
	}()

	r := campaign.New(w.options(append(extra, campaign.WithCheckpoint(dir))...)...)
	if err := r.AdoptPlan(w.plan); err != nil {
		return out, err
	}
	var written *campaign.Result
	err = phase(spanWrite, func() (err error) {
		start := time.Now()
		written, err = r.Run(ctx)
		out.wall = time.Since(start)
		return err
	})
	if err != nil {
		return out, err
	}
	out.cells, out.metrics = written.TotalTests, r.Metrics()
	if out.journalBytes, err = dirBytes(dir); err != nil {
		return out, err
	}
	if err := checkPaper(written); err != nil {
		return out, fmt.Errorf("write run: %w", err)
	}

	r = campaign.New(w.options(append(extra, campaign.WithCheckpoint(dir), campaign.WithResume())...)...)
	if err := r.AdoptPlan(w.plan); err != nil {
		return out, err
	}
	var resumed *campaign.Result
	err = phase(spanResume, func() (err error) {
		start := time.Now()
		resumed, err = r.Run(ctx)
		out.resume = time.Since(start)
		return err
	})
	if err != nil {
		return out, err
	}
	if err := checkPaper(resumed); err != nil {
		return out, fmt.Errorf("resume: %w", err)
	}
	if err := sameResult(written, resumed); err != nil {
		return out, fmt.Errorf("resume against write run: %w", err)
	}
	return out, nil
}

func (w *workload) versionsPass(ctx context.Context, phase phaseFunc, extra []campaign.Option) (passOutput, error) {
	var out passOutput
	r := campaign.New(w.options(extra...)...)
	var res *campaign.VersionResult
	err := phase(spanRun, func() (err error) {
		start := time.Now()
		res, err = r.RunVersions(ctx)
		out.wall = time.Since(start)
		return err
	})
	if err != nil {
		return out, err
	}
	out.cells, out.metrics = res.Totals().Cells, r.Metrics()
	if err := checkVersions(res); err != nil {
		return out, err
	}
	return out, w.matchReference(res)
}

func (w *workload) faultsPass(ctx context.Context, phase phaseFunc, extra []campaign.Option) (passOutput, error) {
	var out passOutput
	r := campaign.New(w.options(extra...)...)
	var res *campaign.RobustResult
	err := phase(spanRun, func() (err error) {
		start := time.Now()
		res, err = r.RunRobustness(ctx)
		out.wall = time.Since(start)
		return err
	})
	if err != nil {
		return out, err
	}
	out.cells, out.metrics = res.Totals().Cells, r.Metrics()
	if ws := res.Totals().WrongSuccess; ws != 0 {
		return out, fmt.Errorf("%d wrong-success cells, want 0 (DESIGN §7)", ws)
	}
	return out, w.matchReference(res)
}

// checkPaper is the classic oracle: the campaign's headline numbers
// must equal the paper's ground truth exactly (DESIGN §3).
func checkPaper(res *campaign.Result) error {
	var errs []error
	for _, c := range report.Comparisons(res) {
		if c.Delta() != 0 {
			errs = append(errs, fmt.Errorf("%s: measured %d, paper %d", c.Metric, c.Measured, c.Paper))
		}
	}
	return errors.Join(errs...)
}

// sameResult requires two campaign Results to be byte-identical once the
// observability snapshot, which is bookkeeping, is set aside.
func sameResult(a, b *campaign.Result) error {
	ja, err := resultJSON(a)
	if err != nil {
		return err
	}
	jb, err := resultJSON(b)
	if err != nil {
		return err
	}
	if !bytes.Equal(ja, jb) {
		return errors.New("the Results differ")
	}
	return nil
}

func resultJSON(res *campaign.Result) ([]byte, error) {
	clone := *res
	clone.Metrics = nil
	return json.Marshal(&clone)
}

// checkVersions holds the DESIGN §14 invariants: no hybrid-fault cell
// is ever accepted, and Metro, a strict-reject framework, typed-rejects
// hybrid-headers traffic.
func checkVersions(res *campaign.VersionResult) error {
	if n := res.ScenarioTotals()["hybrid-fault"].Accepted; n != 0 {
		return fmt.Errorf("%d hybrid-fault cells accepted, want 0", n)
	}
	metro := res.Servers["Metro"]["hybrid-headers"]
	if metro == nil || metro.Accepted != 0 || metro.Rejected == 0 {
		return fmt.Errorf("Metro hybrid-headers = %+v, want typed rejects and no accepts", metro)
	}
	return nil
}

// matchReference compares a pass's matrix with the literal-path result.
func (w *workload) matchReference(res any) error {
	if len(w.expect) == 0 {
		return errors.New("no reference result loaded")
	}
	got, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, w.expect) {
		return fmt.Errorf("%s matrix differs from the literal-path reference", w.name)
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
