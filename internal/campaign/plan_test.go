package campaign

// Tests for shape-first planned execution and the plan cache
// (plan.go). The planner's Result equivalence against the reference
// path lives in equivalence_test.go; here the plan's own structure,
// its fingerprints, and the cache are pinned: a cache file that is
// stale, corrupt, or hostile degrades to a fresh build — never to a
// wrong plan.

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"wsinterop/internal/obs"
	"wsinterop/internal/shape"
)

// TestPlanPartition pins the planner's structural invariants: every
// definition index appears in exactly one group or the loose list,
// builders lead their groups in catalog order, every member hashes to
// its group's fingerprint, and the plan summary's accounting is an
// exact identity.
func TestPlanPartition(t *testing.T) {
	r := NewRunner(Config{Limit: 200, Workers: 4})
	p, err := r.ensurePlan()
	if err != nil {
		t.Fatalf("ensurePlan: %v", err)
	}
	if p.source != "built" {
		t.Errorf("plan source = %q, want built", p.source)
	}
	for _, server := range r.servers {
		sp := p.servers[server.Name()]
		if sp == nil {
			t.Fatalf("no stage plan for %s", server.Name())
		}
		defs, err := r.defsFor(server)
		if err != nil {
			t.Fatal(err)
		}
		if sp.Defs != len(defs) {
			t.Fatalf("%s: plan covers %d defs, catalog has %d", sp.Server, sp.Defs, len(defs))
		}
		seen := make([]bool, len(defs))
		claim := func(i int) {
			if i < 0 || i >= len(defs) || seen[i] {
				t.Fatalf("%s: index %d out of range or claimed twice", sp.Server, i)
			}
			seen[i] = true
		}
		for gi := range sp.Groups {
			g := &sp.Groups[gi]
			if len(g.Members) == 0 {
				t.Fatalf("%s: group %d is empty", sp.Server, gi)
			}
			prev := -1
			for _, di := range g.Members {
				claim(di)
				if di <= prev {
					t.Errorf("%s group %d: members not in catalog order: %v", sp.Server, gi, g.Members)
				}
				prev = di
				if shape.Of(defs[di]) != g.fp {
					t.Errorf("%s group %d: member %d does not hash to the group shape", sp.Server, gi, di)
				}
			}
			for mi, di := range g.Members {
				if g.safe[mi] != substitutionSafe(defs[di]) {
					t.Errorf("%s group %d: member %d safety mask is wrong", sp.Server, gi, di)
				}
			}
		}
		for _, di := range sp.Loose {
			claim(di)
			if shape.Memoizable(defs[di]) {
				t.Errorf("%s: loose member %d is memoizable", sp.Server, di)
			}
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("%s: index %d not covered", sp.Server, i)
			}
		}
	}

	sum, err := r.PlanSummary()
	if err != nil {
		t.Fatalf("PlanSummary: %v", err)
	}
	if sum.Classes != p.classes || sum.Shapes != p.shapes {
		t.Errorf("summary totals %d/%d, plan has %d/%d", sum.Classes, sum.Shapes, p.classes, p.shapes)
	}
	for _, row := range sum.Servers {
		if row.Classes != row.Shapes+row.Clones+row.Unsafe+row.Loose {
			t.Errorf("%s: %d classes != %d shapes + %d clones + %d unsafe + %d loose",
				row.Server, row.Classes, row.Shapes, row.Clones, row.Unsafe, row.Loose)
		}
	}

	// Reference plans are all loose.
	ref := NewRunner(Config{Limit: 50, Reference: true})
	np, err := ref.ensurePlan()
	if err != nil {
		t.Fatalf("reference ensurePlan: %v", err)
	}
	for name, sp := range np.servers {
		if len(sp.Groups) != 0 || len(sp.Loose) != sp.Defs {
			t.Errorf("%s: reference plan has %d groups, %d of %d loose",
				name, len(sp.Groups), len(sp.Loose), sp.Defs)
		}
	}
	if rsum, err := ref.PlanSummary(); err != nil || !rsum.Reference {
		t.Errorf("reference PlanSummary = %+v, %v; want Reference set", rsum, err)
	}

	// The full-scale shape count is the §6.6 study invariant.
	if !testing.Short() {
		full := NewRunner(Config{})
		fsum, err := full.PlanSummary()
		if err != nil {
			t.Fatalf("full PlanSummary: %v", err)
		}
		if fsum.Classes != 22024 || fsum.Shapes != 4856 {
			t.Errorf("full plan = %d classes in %d shapes, want 22024 in 4856", fsum.Classes, fsum.Shapes)
		}
	}
}

// TestFingerprintsPinned pins the checkpoint and plan fingerprints of
// the default and the reference configurations. Journals (-checkpoint)
// and plan caches (-plan-cache) are addressed by them, so any change
// here orphans users' on-disk state; the reference values are those the
// separate -reparse and -dedup=false switches produced together.
func TestFingerprintsPinned(t *testing.T) {
	for _, c := range []struct {
		limit      int
		reference  bool
		ckpt, plan string
	}{
		{0, false, "f0c74f6dda739b29", "9ee43c0ebb38a939"},
		{0, true, "c136f735529191b1", "4b47f32969233f8a"},
		{300, false, "823bb9cfa0c295d8", "a611882a93425b7d"},
		{300, true, "a9e87abed967a114", "c196e73587d4de25"},
	} {
		r := NewRunner(Config{Limit: c.limit, Reference: c.reference})
		if got := r.checkpointFingerprint(); got != c.ckpt {
			t.Errorf("limit=%d reference=%v: checkpoint fingerprint %s, want %s", c.limit, c.reference, got, c.ckpt)
		}
		if got := r.PlanFingerprint(); got != c.plan {
			t.Errorf("limit=%d reference=%v: plan fingerprint %s, want %s", c.limit, c.reference, got, c.plan)
		}
	}
}

// planCounter reads one campaign.plan.* counter from a registry.
func planCounter(reg *obs.Registry, name string) int64 {
	return reg.Counter(name).Value()
}

// TestPlanCacheReuse proves the cache round trip: the first run builds
// and stores (one miss, one build), the second loads (one hit, no
// build) and produces a byte-identical Result.
func TestPlanCacheReuse(t *testing.T) {
	cache := t.TempDir()
	first := resumeConfig(80, 4)
	first.PlanCache = cache
	a, err := NewRunner(first).Run(context.Background())
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	if b, m, h := planCounter(first.Obs, "campaign.plan.builds"), planCounter(first.Obs, "campaign.plan.cache.misses"),
		planCounter(first.Obs, "campaign.plan.cache.hits"); b != 1 || m != 1 || h != 0 {
		t.Errorf("first run: builds=%d misses=%d hits=%d, want 1/1/0", b, m, h)
	}

	second := resumeConfig(80, 4)
	second.PlanCache = cache
	b, err := NewRunner(second).Run(context.Background())
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if bu, m, h := planCounter(second.Obs, "campaign.plan.builds"), planCounter(second.Obs, "campaign.plan.cache.misses"),
		planCounter(second.Obs, "campaign.plan.cache.hits"); bu != 0 || m != 0 || h != 1 {
		t.Errorf("second run: builds=%d misses=%d hits=%d, want 0/0/1", bu, m, h)
	}
	compareResults(t, a, b)
	if got, want := resultBytes(t, b), resultBytes(t, a); string(got) != string(want) {
		t.Error("cached-plan Result is not byte-identical to the building run's")
	}

	// A different configuration must miss: its fingerprint names a file
	// that does not exist yet.
	other := resumeConfig(60, 4)
	other.PlanCache = cache
	if _, err := NewRunner(other).Run(context.Background()); err != nil {
		t.Fatalf("other-config run: %v", err)
	}
	if m, h := planCounter(other.Obs, "campaign.plan.cache.misses"), planCounter(other.Obs, "campaign.plan.cache.hits"); m != 1 || h != 0 {
		t.Errorf("other config: misses=%d hits=%d, want 1/0", m, h)
	}
}

// TestSharedPlan proves the in-process sharing path: a plan resolved
// by one runner is adopted by a second with the same configuration
// (no build, one shared-plan credit, byte-identical Result), and a
// plan for any other configuration is refused before it can execute.
func TestSharedPlan(t *testing.T) {
	base := resumeConfig(80, 4)
	a, err := NewRunner(base).Run(context.Background())
	if err != nil {
		t.Fatalf("building run: %v", err)
	}
	plan, err := NewRunner(resumeConfig(80, 4)).ExecutionPlan()
	if err != nil {
		t.Fatalf("ExecutionPlan: %v", err)
	}
	if plan.Fingerprint() == "" {
		t.Fatal("shared plan has no fingerprint")
	}

	second := resumeConfig(80, 4)
	r := NewRunner(second)
	if err := r.AdoptPlan(plan); err != nil {
		t.Fatalf("AdoptPlan: %v", err)
	}
	b, err := r.Run(context.Background())
	if err != nil {
		t.Fatalf("adopting run: %v", err)
	}
	if bu, sh := planCounter(second.Obs, "campaign.plan.builds"), planCounter(second.Obs, "campaign.plan.shared"); bu != 0 || sh != 1 {
		t.Errorf("adopting run: builds=%d shared=%d, want 0/1", bu, sh)
	}
	sum, err := r.PlanSummary()
	if err != nil {
		t.Fatalf("PlanSummary: %v", err)
	}
	if sum.Source != "shared" {
		t.Errorf("plan source = %q, want shared", sum.Source)
	}
	compareResults(t, a, b)
	if got, want := resultBytes(t, b), resultBytes(t, a); string(got) != string(want) {
		t.Error("shared-plan Result is not byte-identical to the building run's")
	}

	// Wrong configuration: refused up front, never executed.
	if err := NewRunner(resumeConfig(60, 4)).AdoptPlan(plan); err == nil {
		t.Error("AdoptPlan accepted a plan for a different configuration")
	}
	// The reference path plans every class loose: a different plan.
	refCfg := resumeConfig(80, 4)
	refCfg.Reference = true
	if err := NewRunner(refCfg).AdoptPlan(plan); err == nil {
		t.Error("AdoptPlan accepted an optimized plan on the reference path")
	}
}

// cachedPlanFile locates the single plan file a primed cache holds.
func cachedPlanFile(t *testing.T, cache string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(cache, "plan-*.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("plan cache holds %d files (%v)", len(matches), err)
	}
	return matches[0]
}

// TestPlanCacheInvalidation tampers with a primed cache file in every
// way the loader guards against and proves each one degrades to a
// fresh build — rejected counter bumped, Result identical, and the
// rebuilt plan healing the cache file for the next run.
func TestPlanCacheInvalidation(t *testing.T) {
	const limit = 80
	clean, err := NewRunner(resumeConfig(limit, 4)).Run(context.Background())
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	cleanBytes := resultBytes(t, clean)

	// rewrite unmarshals the primed file, lets the case mutate it, and
	// re-marshals with a consistent digest — so the tamper under test is
	// the only defect the loader can object to.
	rewrite := func(t *testing.T, path string, mutate func(env *planFile, servers []*serverPlan)) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var env planFile
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatal(err)
		}
		var servers []*serverPlan
		if err := json.Unmarshal(env.Servers, &servers); err != nil {
			t.Fatal(err)
		}
		mutate(&env, servers)
		raw, err := json.Marshal(servers)
		if err != nil {
			t.Fatal(err)
		}
		env.Servers = raw
		env.Digest = planDigest(raw)
		out, err := json.Marshal(&env)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name   string
		tamper func(t *testing.T, path string)
	}{
		{"fingerprint-mismatch", func(t *testing.T, path string) {
			rewrite(t, path, func(env *planFile, _ []*serverPlan) { env.Fingerprint = "deadbeefdeadbeef" })
		}},
		{"version-skew", func(t *testing.T, path string) {
			rewrite(t, path, func(env *planFile, _ []*serverPlan) { env.Version = 99 })
		}},
		{"truncated", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"garbage", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte("{definitely not a plan"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"digest-mismatch", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Flip one byte inside the servers payload without touching
			// the recorded digest.
			i := strings.Index(string(data), `"members":[`)
			if i < 0 {
				t.Fatal("no members array to corrupt")
			}
			data[i+len(`"members":[`)] ^= 0x01
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"stale-shape", func(t *testing.T, path string) {
			rewrite(t, path, func(_ *planFile, servers []*serverPlan) {
				// A fingerprint from a different shape algorithm: valid hex,
				// right length, wrong value — the builder re-hash must catch
				// it even though the digest is consistent.
				servers[0].Groups[0].FP = strings.Repeat("ab", 32)
			})
		}},
		{"index-out-of-range", func(t *testing.T, path string) {
			rewrite(t, path, func(_ *planFile, servers []*serverPlan) {
				servers[0].Groups[0].Members[0] = 1 << 20
			})
		}},
		{"index-claimed-twice", func(t *testing.T, path string) {
			rewrite(t, path, func(_ *planFile, servers []*serverPlan) {
				servers[0].Loose = append(servers[0].Loose, servers[0].Groups[0].Members[0])
			})
		}},
		{"unsafe-out-of-range", func(t *testing.T, path string) {
			rewrite(t, path, func(_ *planFile, servers []*serverPlan) {
				servers[0].Groups[0].Unsafe = append(servers[0].Groups[0].Unsafe, 99)
			})
		}},
		{"stale-safety-mask", func(t *testing.T, path string) {
			rewrite(t, path, func(_ *planFile, servers []*serverPlan) {
				// Mark a genuinely safe member unsafe: the recomputed
				// predicate disagrees and the plan is refused.
				servers[0].Groups[0].Unsafe = append(servers[0].Groups[0].Unsafe, 0)
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cache := t.TempDir()
			prime := resumeConfig(limit, 4)
			prime.PlanCache = cache
			if _, err := NewRunner(prime).Run(context.Background()); err != nil {
				t.Fatalf("priming run: %v", err)
			}
			path := cachedPlanFile(t, cache)
			tc.tamper(t, path)

			cfg := resumeConfig(limit, 4)
			cfg.PlanCache = cache
			res, err := NewRunner(cfg).Run(context.Background())
			if err != nil {
				t.Fatalf("run with tampered cache: %v", err)
			}
			if rej, b := planCounter(cfg.Obs, "campaign.plan.cache.rejected"), planCounter(cfg.Obs, "campaign.plan.builds"); rej != 1 || b != 1 {
				t.Errorf("rejected=%d builds=%d, want 1/1", rej, b)
			}
			if got := resultBytes(t, res); string(got) != string(cleanBytes) {
				t.Error("Result after cache rejection is not byte-identical to the baseline")
			}

			// The rebuild heals the file: a third run loads it cleanly.
			again := resumeConfig(limit, 4)
			again.PlanCache = cache
			if _, err := NewRunner(again).Run(context.Background()); err != nil {
				t.Fatalf("run after heal: %v", err)
			}
			if h, rej := planCounter(again.Obs, "campaign.plan.cache.hits"), planCounter(again.Obs, "campaign.plan.cache.rejected"); h != 1 || rej != 0 {
				t.Errorf("after heal: hits=%d rejected=%d, want 1/0", h, rej)
			}
		})
	}
}

// FuzzPlanCache throws hostile bytes at the cache loader. The safety
// property: loadCachedPlan either errors (the caller rebuilds) or
// returns a plan structurally identical to a fresh build — it must
// never accept a file that would change execution.
func FuzzPlanCache(f *testing.F) {
	// Seed with the real file and near-miss mutations of it.
	seedCfg := Config{Limit: 30, Workers: 1, PlanCache: f.TempDir()}
	r := NewRunner(seedCfg)
	fp := r.planFingerprint()
	p, err := r.buildPlan(fp)
	if err != nil {
		f.Fatal(err)
	}
	if err := r.storePlan(p); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(r.planCachePath(fp))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte("{}"))
	f.Add([]byte(`{"version":1,"fingerprint":"x","digest":"y","servers":[]}`))
	f.Add(valid[:len(valid)/3])
	mutated := append([]byte(nil), valid...)
	mutated[len(mutated)/2] ^= 0xff
	f.Add(mutated)

	fresh, err := r.buildPlan(fp)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(r.planCachePath(fp), data, 0o644); err != nil {
			t.Fatal(err)
		}
		loaded, err := r.loadCachedPlan(fp)
		if err != nil {
			return // rejected: the runner would rebuild
		}
		if len(loaded.servers) != len(fresh.servers) {
			t.Fatalf("accepted plan has %d stages, fresh build %d", len(loaded.servers), len(fresh.servers))
		}
		for name, want := range fresh.servers {
			got := loaded.servers[name]
			if got == nil {
				t.Fatalf("accepted plan is missing stage %s", name)
			}
			if got.Defs != want.Defs || len(got.Groups) != len(want.Groups) || !reflect.DeepEqual(got.Loose, want.Loose) {
				t.Fatalf("accepted stage %s differs from fresh build", name)
			}
			for gi := range want.Groups {
				if !reflect.DeepEqual(got.Groups[gi].Members, want.Groups[gi].Members) ||
					got.Groups[gi].fp != want.Groups[gi].fp ||
					!reflect.DeepEqual(got.Groups[gi].safe, want.Groups[gi].safe) {
					t.Fatalf("accepted stage %s group %d differs from fresh build", name, gi)
				}
			}
		}
	})
}
