package campaign

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"wsinterop/internal/obs"
)

// These tests enforce the two-path contract: the optimized campaign —
// shape-first plan, shape memo, one shared document analysis per
// service — must produce a Result identical (every headline statistic,
// the full Table III matrix, the profile matrix, and the failure
// index) to the paper's literal pipeline, where every class publishes
// individually and every client re-parses the serialized WSDL
// (Config.Reference). The reference runs once per limit and test
// binary; every optimized variant is compared against it and, byte for
// byte with DeepEqual counters and histograms, against the clean
// optimized run.

// compareResults asserts two campaign results are identical,
// reporting the first divergence precisely rather than dumping both.
func compareResults(t *testing.T, a, b *Result) {
	t.Helper()
	type scalar struct {
		name string
		a, b int
	}
	for _, s := range []scalar{
		{"TotalServices", a.TotalServices, b.TotalServices},
		{"TotalPublished", a.TotalPublished, b.TotalPublished},
		{"TotalTests", a.TotalTests, b.TotalTests},
		{"SameFrameworkErrors", a.SameFrameworkErrors, b.SameFrameworkErrors},
		{"InteropErrors", a.InteropErrors, b.InteropErrors},
		{"FlaggedServices", a.FlaggedServices, b.FlaggedServices},
		{"FlaggedCleanServices", a.FlaggedCleanServices, b.FlaggedCleanServices},
		{"UnflaggedFailingServices", a.UnflaggedFailingServices, b.UnflaggedFailingServices},
	} {
		if s.a != s.b {
			t.Errorf("%s: %d != %d", s.name, s.a, s.b)
		}
	}
	if !reflect.DeepEqual(a.ServerOrder, b.ServerOrder) || !reflect.DeepEqual(a.ClientOrder, b.ClientOrder) {
		t.Fatalf("roster orders differ: %v/%v vs %v/%v", a.ServerOrder, a.ClientOrder, b.ServerOrder, b.ClientOrder)
	}
	for _, server := range a.ServerOrder {
		if !reflect.DeepEqual(a.Servers[server], b.Servers[server]) {
			t.Errorf("server %s: %+v != %+v", server, a.Servers[server], b.Servers[server])
		}
	}
	for _, client := range a.ClientOrder {
		if !reflect.DeepEqual(a.Clients[client], b.Clients[client]) {
			t.Errorf("client %s: %+v != %+v", client, a.Clients[client], b.Clients[client])
		}
		for _, server := range a.ServerOrder {
			if *a.Matrix[client][server] != *b.Matrix[client][server] {
				t.Errorf("cell %s × %s: %+v != %+v", client, server,
					*a.Matrix[client][server], *b.Matrix[client][server])
			}
		}
	}
	if len(a.Profiles) != len(b.Profiles) {
		t.Fatalf("profile roster length: %d != %d", len(a.Profiles), len(b.Profiles))
	}
	for i := range a.Profiles {
		if !reflect.DeepEqual(a.Profiles[i], b.Profiles[i]) {
			t.Errorf("profile %s matrix: %+v != %+v", a.Profiles[i].ID, *a.Profiles[i], *b.Profiles[i])
		}
	}
	if len(a.Failures) != len(b.Failures) {
		t.Fatalf("failure index length: %d != %d", len(a.Failures), len(b.Failures))
	}
	for i := range a.Failures {
		if a.Failures[i] != b.Failures[i] {
			t.Fatalf("failure %d: %+v != %+v", i, a.Failures[i], b.Failures[i])
		}
	}
}

// checkPaperInvariants asserts the study's full-scale ground truth.
func checkPaperInvariants(t *testing.T, res *Result) {
	t.Helper()
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"services created", res.TotalServices, 22024},
		{"published", res.TotalPublished, 7239},
		{"tests", res.TotalTests, 79629},
		{"interop errors", res.InteropErrors, 1588},
		{"same-framework errors", res.SameFrameworkErrors, 307},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// referenceBaseline is one reference run and one clean optimized run
// of the same campaign. Every equivalence suite at a given limit
// compares against the same pair, so the expensive reference runs once
// per test binary.
type referenceBaseline struct {
	ref, opt *Result
	refObs   *obs.Registry
	optBytes []byte
	optSnap  *obs.Snapshot
}

var (
	baselineMu sync.Mutex
	baselines  = map[int]*referenceBaseline{}
)

// baselineFor returns the cached baseline at limit (0 is the full
// study), running both sides on first use. A failed run is not cached.
func baselineFor(t *testing.T, limit int) *referenceBaseline {
	t.Helper()
	baselineMu.Lock()
	defer baselineMu.Unlock()
	if b := baselines[limit]; b != nil {
		return b
	}
	refCfg := resumeConfig(limit, 4)
	refCfg.Reference = true
	ref, err := NewRunner(refCfg).Run(context.Background())
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	optCfg := resumeConfig(limit, 4)
	opt, err := NewRunner(optCfg).Run(context.Background())
	if err != nil {
		t.Fatalf("optimized run: %v", err)
	}
	b := &referenceBaseline{
		ref:      ref,
		opt:      opt,
		refObs:   refCfg.Obs,
		optBytes: resultBytes(t, opt),
		optSnap:  optCfg.Obs.Snapshot(),
	}
	baselines[limit] = b
	return b
}

// checkReparsed asserts the reference side really is the literal
// pipeline: no memo stats, nothing served from a memo, and one client
// artifact generation from the WSDL bytes per test.
func (b *referenceBaseline) checkReparsed(t *testing.T) {
	t.Helper()
	if b.ref.Dedup.Enabled || *b.ref.Dedup != (DedupStats{}) {
		t.Errorf("reference run should report zero memo stats, got %+v", *b.ref.Dedup)
	}
	for _, name := range []string{"campaign.publish.memoized", "campaign.test.memoized"} {
		if n := b.refObs.Counter(name).Value(); n != 0 {
			t.Errorf("reference run: %s = %d, want 0", name, n)
		}
	}
	tests := b.refObs.Counter("campaign.test.total").Value()
	if gen := b.refObs.Counter("campaign.generate.runs").Value(); tests == 0 || gen != tests {
		t.Errorf("reference run: %d generations for %d tests, want one per test", gen, tests)
	}
}

// checkMemo asserts the optimized side engaged the shape memo and, at
// full scale, compressed the corpus hard with no shape failing its
// byte-for-byte template verification.
func (b *referenceBaseline) checkMemo(t *testing.T, limit int) {
	t.Helper()
	d := b.opt.Dedup
	if !d.Enabled || d.Shapes == 0 || d.PublishMemoized == 0 || d.TestMemoized == 0 {
		t.Errorf("memo layer did not engage: %+v", *d)
	}
	if limit != 0 {
		return
	}
	if d.Fallbacks != 0 {
		t.Errorf("template verification fallbacks = %d, want 0", d.Fallbacks)
	}
	if d.Shapes >= d.PublishTotal/2 {
		t.Errorf("poor shape compression: %d shapes for %d publishes", d.Shapes, d.PublishTotal)
	}
}

// runReferenceMatrix is the shared optimized-vs-reference matrix: the
// reference once, then the optimized path clean, at workers 1 and 8,
// resumed from a mid-run interruption, and merged from a 2-way shard
// split. limit 0 is the full study.
func runReferenceMatrix(t *testing.T, limit int) {
	b := baselineFor(t, limit)
	ref, opt, optBytes, optSnap := b.ref, b.opt, b.optBytes, b.optSnap
	compareResults(t, ref, opt)
	b.checkReparsed(t)
	b.checkMemo(t, limit)
	if limit == 0 {
		checkPaperInvariants(t, ref)
		checkPaperInvariants(t, opt)
	}

	check := func(t *testing.T, res *Result, snap *obs.Snapshot) {
		t.Helper()
		compareResults(t, ref, res)
		if limit == 0 {
			checkPaperInvariants(t, res)
		}
		if !reflect.DeepEqual(opt.Dedup, res.Dedup) {
			t.Errorf("dedup stats differ:\nclean: %+v\ngot:   %+v", opt.Dedup, res.Dedup)
		}
		if got := resultBytes(t, res); string(got) != string(optBytes) {
			t.Error("serialized Result is not byte-identical to the clean optimized run")
		}
		compareSnapshots(t, t.Name(), optSnap, snap)
	}

	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := resumeConfig(limit, workers)
			res, err := NewRunner(cfg).Run(context.Background())
			if err != nil {
				t.Fatalf("optimized run: %v", err)
			}
			check(t, res, cfg.Obs.Snapshot())
		})
	}

	t.Run("resumed", func(t *testing.T) {
		dir := t.TempDir()
		interruptAt(t, resumeConfig(limit, 8), dir, ref.TotalServices/2)
		res, snap := resume(t, resumeConfig(limit, 8), dir)
		check(t, res, snap)
	})

	t.Run("sharded", func(t *testing.T) {
		dirs := runShardWorkers(t, limit, 4, 2, -1, 0)
		res, snap := mergeShardJournals(t, limit, 4, dirs)
		check(t, res, snap)
	})
}

func TestPlanEquivalenceScaled(t *testing.T) {
	runReferenceMatrix(t, 150)
}

// TestPlanEquivalenceFull is the acceptance check at full study scale:
// all 22 024 service cells on the optimized planned executor — clean,
// at workers 1 and 8, resumed, and merged from shards — against one
// reference run of the paper's literal pipeline.
func TestPlanEquivalenceFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale equivalence skipped in -short mode")
	}
	runReferenceMatrix(t, 0)
}

// TestReparseEquivalenceScaled checks, on the scaled baseline, that
// sharing one parsed analysis per service gives the Result of the
// reference path, where every client re-parses the WSDL bytes.
func TestReparseEquivalenceScaled(t *testing.T) {
	b := baselineFor(t, 150)
	compareResults(t, b.ref, b.opt)
	b.checkReparsed(t)
}

// TestReparseEquivalenceFull is the analysis-sharing half of the
// full-scale baseline: the optimized Result equals the reference's,
// the reference re-parsed bytes for every test, and the paper's
// invariants hold on both sides.
func TestReparseEquivalenceFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale equivalence skipped in -short mode")
	}
	b := baselineFor(t, 0)
	compareResults(t, b.ref, b.opt)
	b.checkReparsed(t)
	checkPaperInvariants(t, b.ref)
	checkPaperInvariants(t, b.opt)
}

// TestDedupEquivalenceFull is the shape-memo half of the full-scale
// baseline: the optimized Result equals the per-class reference's,
// and the memo compresses the corpus with no verification fallback.
func TestDedupEquivalenceFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale equivalence skipped in -short mode")
	}
	b := baselineFor(t, 0)
	compareResults(t, b.ref, b.opt)
	b.checkMemo(t, 0)
	checkPaperInvariants(t, b.opt)
}
