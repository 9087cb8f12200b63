package campaign

// Shape-first planned execution (DESIGN.md §12). The shape partition
// of a catalog is a deterministic function of the campaign
// configuration, so the planner computes it once, up front, into an
// immutable Plan:
// per server, the catalog's definition indexes grouped by shape
// fingerprint, each group's builder designated (the first member in
// catalog order), and the members whose names fail the substitution-
// safety predicates marked for the per-class path.
//
// Execution is shape-first: workers own whole groups, so the memo
// table mutex is taken exactly once per stage
// (resolveEntries), no sync.Once races ever occur, and once a group's
// representative outcomes exist the remaining safe clones are a pure
// columnar broadcast — one multiplied fold of the representative's
// outcome codes (foldCodes), with counters batched per group instead
// of bumped per class.
//
// The plan is bookkeeping, never authority: builders still publish,
// byte-verify their templates, and execute real client tests, so the
// §6.6 guarantee — memoization can never change a Result — holds. The
// reference path (Config.Reference) runs through this same executor on
// an all-loose plan: every class direct, every client re-parsing the
// WSDL bytes. TestPlanEquivalenceFull proves the optimized path's
// Results identical to the reference's at full scale.
//
// Because the partition is configuration-addressed, it can also be
// persisted: Config.PlanCache stores each built plan in a JSON file
// keyed by the campaign fingerprint, and later runs — repeated
// benchmarks, daemon campaigns, resumed checkpoints — load it instead
// of re-walking and re-hashing the catalog. A loaded plan is
// re-validated against the live catalog (exact index partition, and
// every group's builder re-fingerprinted and its substitution safety
// recomputed), so a stale or hostile cache file degrades to a fresh
// build, never to a wrong plan.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"wsinterop/internal/framework"
	"wsinterop/internal/journal"
	"wsinterop/internal/obs"
	"wsinterop/internal/services"
	"wsinterop/internal/shape"
)

// planCacheVersion is the on-disk plan schema version. Bump it when
// the plan format — or any algorithm whose output a plan caches, such
// as the shape canonicalization or the substitution-safety predicates
// — changes incompatibly; version skew falls back to a fresh build.
const planCacheVersion = 1

// planGroup is one (server, shape) work unit: the definition indexes
// of every same-shape class, in catalog order. Members[0] is the
// designated builder — it runs the full per-class path (publish,
// marshal, WS-I check, template verification, all client tests) and
// the group's remaining safe members broadcast its outcomes.
type planGroup struct {
	// FP is the full shape fingerprint, hex-encoded for the cache file.
	FP      string `json:"fp"`
	Members []int  `json:"members"`
	// Unsafe holds positions into Members (not definition indexes —
	// they compress better) whose classes fail the substitution-safety
	// predicates and must take the per-class path.
	Unsafe []int `json:"unsafe,omitempty"`

	// Decoded forms, never serialized.
	fp   shape.Fingerprint
	safe []bool
}

// finish materializes the in-memory safety mask from the sparse list.
func (g *planGroup) finish() {
	g.safe = make([]bool, len(g.Members))
	for i := range g.safe {
		g.safe[i] = true
	}
	for _, u := range g.Unsafe {
		g.safe[u] = false
	}
}

// serverPlan is one server's stage plan: a partition of the catalog's
// definition indexes into shape groups plus the loose remainder —
// classes the memo layer cannot serve (shape.Memoizable failures, or
// every class on the reference path).
type serverPlan struct {
	Server string      `json:"server"`
	Defs   int         `json:"defs"`
	Groups []planGroup `json:"groups,omitempty"`
	Loose  []int       `json:"loose,omitempty"`

	// defs is the definition list the plan was built against (or bound
	// to, for cache loads), retained so the stage need not regenerate it.
	defs []services.Definition
}

// campaignPlan is the immutable whole-campaign execution plan.
type campaignPlan struct {
	fingerprint string
	servers     map[string]*serverPlan
	order       []string
	classes     int
	shapes      int
	source      string // "built", "cache", or "shared"
}

// planFile is the on-disk cache envelope. Servers stays raw so the
// digest is computed over the exact bytes read back.
type planFile struct {
	Version     int             `json:"version"`
	Fingerprint string          `json:"fingerprint"`
	Digest      string          `json:"digest"`
	Servers     json.RawMessage `json:"servers"`
}

// Plan is an opaque handle to a resolved execution plan. A plan is
// immutable and content-addressed by the campaign configuration, so
// one runner may build it and any number of later runners with the
// identical configuration may adopt it (AdoptPlan), skipping the
// catalog walk and hash pass entirely — the steady state of the
// campaign daemon and of repeated benchmark runs.
type Plan struct {
	p *campaignPlan
}

// Fingerprint returns the configuration fingerprint the plan was
// resolved for.
func (p *Plan) Fingerprint() string {
	if p == nil || p.p == nil {
		return ""
	}
	return p.p.fingerprint
}

// ExecutionPlan resolves the runner's plan (building or cache-loading
// it if it has not been resolved yet) and returns a shareable handle.
func (r *Runner) ExecutionPlan() (*Plan, error) {
	p, err := r.ensurePlan()
	if err != nil {
		return nil, err
	}
	return &Plan{p: p}, nil
}

// PlanFingerprint returns the fingerprint the runner's plan resolves
// to, or "" when the configuration cannot share plans (a custom
// CatalogFor, whose catalogs the fingerprint cannot address).
func (r *Runner) PlanFingerprint() string {
	if r.cfg.CatalogFor != nil {
		return ""
	}
	return r.planFingerprint()
}

// AdoptPlan installs a plan resolved by another runner with the same
// configuration. It must be called before Run. The fingerprint check
// makes adoption safe: a plan for any other configuration is refused,
// so a wrong plan can never execute.
func (r *Runner) AdoptPlan(p *Plan) error {
	if p == nil || p.p == nil {
		return fmt.Errorf("campaign: cannot adopt a nil plan")
	}
	if r.cfg.CatalogFor != nil {
		return fmt.Errorf("campaign: custom catalogs cannot share plans")
	}
	if fp := r.planFingerprint(); p.p.fingerprint != fp {
		return fmt.Errorf("campaign: shared plan fingerprint %s does not match this configuration (%s)", p.p.fingerprint, fp)
	}
	r.sharedPlan = p.p
	return nil
}

// planFingerprint content-addresses everything the plan depends on:
// the campaign configuration fingerprint (roster, limit, variant,
// style, reference path) plus the shard slice, which changes defsFor's
// output. Workers are excluded — a plan is execution-shape, not
// schedule.
func (r *Runner) planFingerprint() string {
	return obs.TraceID("wsinterop-plan-v1", r.checkpointFingerprint(), r.cfg.Shard.String())
}

// ensurePlan resolves the runner's execution plan exactly once:
// loaded from the plan cache when possible, built from the catalog
// otherwise.
func (r *Runner) ensurePlan() (*campaignPlan, error) {
	r.planOnce.Do(func() { r.plan, r.planErr = r.buildOrLoadPlan() })
	return r.plan, r.planErr
}

// planFor returns one server's stage plan.
func (r *Runner) planFor(server framework.ServerFramework) (*serverPlan, error) {
	p, err := r.ensurePlan()
	if err != nil {
		return nil, err
	}
	sp := p.servers[server.Name()]
	if sp == nil {
		return nil, fmt.Errorf("campaign: plan has no stage for server %s", server.Name())
	}
	return sp, nil
}

func (r *Runner) buildOrLoadPlan() (*campaignPlan, error) {
	fp := r.planFingerprint()
	if sp := r.sharedPlan; sp != nil {
		// AdoptPlan already proved the fingerprint matches. Shallow-copy
		// so the shared immutable body keeps its original source label.
		r.met.planShared.Inc()
		cp := *sp
		cp.source = "shared"
		return &cp, nil
	}
	// A custom catalog is only a boolean in the fingerprint — two
	// different CatalogFor funcs would collide — so such runs never
	// touch the cache.
	cacheable := r.cfg.PlanCache != "" && r.cfg.CatalogFor == nil
	if cacheable {
		p, err := r.loadCachedPlan(fp)
		switch {
		case err == nil:
			r.met.planCacheHits.Inc()
			return p, nil
		case errors.Is(err, fs.ErrNotExist):
			r.met.planCacheMisses.Inc()
		default:
			r.met.planCacheRejected.Inc()
			r.obs.Emit(obs.Event{
				Trace:  obs.TraceID("plan-cache", fp),
				Stage:  "plan",
				Detail: fmt.Sprintf("plan cache rejected, rebuilding: %v", err),
			})
		}
	}
	p, err := r.buildPlan(fp)
	if err != nil {
		return nil, err
	}
	r.met.planBuilds.Inc()
	if cacheable {
		if err := r.storePlan(p); err != nil {
			// A cache that cannot be written only costs the next run a
			// rebuild; the campaign proceeds.
			r.obs.Emit(obs.Event{
				Trace:  obs.TraceID("plan-cache", fp),
				Stage:  "plan",
				Detail: fmt.Sprintf("plan cache write failed: %v", err),
			})
		}
	}
	return p, nil
}

// buildPlan walks every server's catalog once and partitions it into
// shape groups. The per-class fingerprint and safety computations are
// spread over the worker pool; grouping itself is a single cheap pass.
func (r *Runner) buildPlan(fp string) (*campaignPlan, error) {
	p := &campaignPlan{
		fingerprint: fp,
		servers:     make(map[string]*serverPlan, len(r.servers)),
		source:      "built",
	}
	for _, server := range r.servers {
		defs, err := r.defsFor(server)
		if err != nil {
			return nil, fmt.Errorf("publish on %s: %w", server.Name(), err)
		}
		sp := r.buildServerPlan(server.Name(), defs)
		p.servers[sp.Server] = sp
		p.order = append(p.order, sp.Server)
		p.classes += sp.Defs
		p.shapes += len(sp.Groups)
	}
	return p, nil
}

// classTraits is the precomputed per-definition input of grouping.
type classTraits struct {
	fp         shape.Fingerprint
	memoizable bool
	safe       bool
}

func (r *Runner) buildServerPlan(server string, defs []services.Definition) *serverPlan {
	sp := &serverPlan{Server: server, Defs: len(defs), defs: defs}
	if !r.dedupOn() {
		// Reference: every class is loose; the executor routes them direct.
		sp.Loose = make([]int, len(defs))
		for i := range sp.Loose {
			sp.Loose[i] = i
		}
		return sp
	}
	traits := r.classTraitsFor(defs)
	index := make(map[shape.Fingerprint]int)
	for i := range defs {
		t := &traits[i]
		if !t.memoizable {
			sp.Loose = append(sp.Loose, i)
			continue
		}
		gi, ok := index[t.fp]
		if !ok {
			gi = len(sp.Groups)
			index[t.fp] = gi
			sp.Groups = append(sp.Groups, planGroup{FP: t.fp.Hex(), fp: t.fp})
		}
		g := &sp.Groups[gi]
		if !t.safe {
			g.Unsafe = append(g.Unsafe, len(g.Members))
		}
		g.Members = append(g.Members, i)
	}
	for gi := range sp.Groups {
		sp.Groups[gi].finish()
	}
	return sp
}

// classTraitsFor hashes and classifies every definition across the
// worker pool — the SHA-256 pass that used to run inside the execution
// hot path, once per class per run.
func (r *Runner) classTraitsFor(defs []services.Definition) []classTraits {
	traits := make([]classTraits, len(defs))
	workers := min(r.workers(), len(defs))
	if workers <= 1 {
		for i := range defs {
			fillTraits(&traits[i], defs[i])
		}
		return traits
	}
	chunk := (len(defs) + workers - 1) / workers
	dispatch(context.Background(), workers, workers, func(_, w int) {
		for i := w * chunk; i < min((w+1)*chunk, len(defs)); i++ {
			fillTraits(&traits[i], defs[i])
		}
	})
	return traits
}

func fillTraits(t *classTraits, def services.Definition) {
	t.memoizable = shape.Memoizable(def)
	if t.memoizable {
		t.fp = shape.Of(def)
		t.safe = substitutionSafe(def)
	}
}

func (r *Runner) planCachePath(fp string) string {
	return filepath.Join(r.cfg.PlanCache, "plan-"+fp+".json")
}

// planDigest content-addresses the serialized server plans, so any
// corruption of the payload — truncation, bit rot, hand edits — is
// caught before the indexes are even parsed.
func planDigest(servers []byte) string {
	return obs.TraceID("wsinterop-plan-digest", string(servers))
}

// storePlan persists a built plan atomically (temp file + rename).
func (r *Runner) storePlan(p *campaignPlan) error {
	list := make([]*serverPlan, 0, len(p.order))
	for _, name := range p.order {
		list = append(list, p.servers[name])
	}
	servers, err := json.Marshal(list)
	if err != nil {
		return err
	}
	data, err := json.Marshal(&planFile{
		Version:     planCacheVersion,
		Fingerprint: p.fingerprint,
		Digest:      planDigest(servers),
		Servers:     servers,
	})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(r.cfg.PlanCache, 0o755); err != nil {
		return err
	}
	path := r.planCachePath(p.fingerprint)
	tmp, err := os.CreateTemp(r.cfg.PlanCache, "plan-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// loadCachedPlan reads, validates, and binds the cached plan for the
// given fingerprint. Every defect — missing file, corrupt JSON, digest
// or fingerprint mismatch, version skew, an index partition that does
// not tile the live catalog, a builder whose recomputed shape differs
// — returns an error and the caller rebuilds. fs.ErrNotExist is the
// only "expected" failure (counted as a miss, not a rejection).
func (r *Runner) loadCachedPlan(fp string) (*campaignPlan, error) {
	data, err := os.ReadFile(r.planCachePath(fp))
	if err != nil {
		return nil, err
	}
	var env planFile
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("plan cache: %w", err)
	}
	if env.Version != planCacheVersion {
		return nil, fmt.Errorf("plan cache: schema version %d, this build reads %d", env.Version, planCacheVersion)
	}
	if env.Fingerprint != fp {
		return nil, fmt.Errorf("plan cache: fingerprint %s, campaign is %s", env.Fingerprint, fp)
	}
	if got := planDigest(env.Servers); got != env.Digest {
		return nil, fmt.Errorf("plan cache: content digest mismatch")
	}
	var list []*serverPlan
	if err := json.Unmarshal(env.Servers, &list); err != nil {
		return nil, fmt.Errorf("plan cache: %w", err)
	}
	if len(list) != len(r.servers) {
		return nil, fmt.Errorf("plan cache: %d server stages, campaign has %d", len(list), len(r.servers))
	}
	p := &campaignPlan{
		fingerprint: fp,
		servers:     make(map[string]*serverPlan, len(list)),
		source:      "cache",
	}
	for i, server := range r.servers {
		sp := list[i]
		if sp == nil || sp.Server != server.Name() {
			return nil, fmt.Errorf("plan cache: stage %d is not for server %s", i, server.Name())
		}
		defs, err := r.defsFor(server)
		if err != nil {
			return nil, fmt.Errorf("publish on %s: %w", server.Name(), err)
		}
		if err := r.bindServerPlan(sp, defs); err != nil {
			return nil, fmt.Errorf("plan cache: %s: %w", sp.Server, err)
		}
		p.servers[sp.Server] = sp
		p.order = append(p.order, sp.Server)
		p.classes += sp.Defs
		p.shapes += len(sp.Groups)
	}
	return p, nil
}

// bindServerPlan validates one cached stage against the live catalog
// and attaches the definition list. The expensive invariant a cache
// hit skips is re-hashing every clone; what it must never skip is
// proof that the partition still describes this catalog, so binding
// checks that the indexes tile [0, len(defs)) exactly once, that each
// group's builder re-fingerprints to the group's stored shape, and
// that the stored safety mask matches the live predicates (builders
// are the only members re-hashed — ~4 856 SHA-256s instead of 22 024;
// a cache written by a build with a different shape algorithm fails
// the builder check and is discarded wholesale).
func (r *Runner) bindServerPlan(sp *serverPlan, defs []services.Definition) error {
	if sp.Defs != len(defs) {
		return fmt.Errorf("plan covers %d definitions, catalog has %d", sp.Defs, len(defs))
	}
	seen := make([]bool, len(defs))
	claim := func(i int) error {
		if i < 0 || i >= len(defs) {
			return fmt.Errorf("definition index %d out of range", i)
		}
		if seen[i] {
			return fmt.Errorf("definition index %d claimed twice", i)
		}
		seen[i] = true
		return nil
	}
	if !r.dedupOn() && len(sp.Groups) > 0 {
		return fmt.Errorf("plan has shape groups, campaign has memoization disabled")
	}
	for gi := range sp.Groups {
		g := &sp.Groups[gi]
		if len(g.Members) == 0 {
			return fmt.Errorf("group %d is empty", gi)
		}
		fp, err := shape.ParseHex(g.FP)
		if err != nil {
			return fmt.Errorf("group %d: %w", gi, err)
		}
		g.fp = fp
		unsafe := make(map[int]bool, len(g.Unsafe))
		for _, u := range g.Unsafe {
			if u < 0 || u >= len(g.Members) {
				return fmt.Errorf("group %d: unsafe position %d out of range", gi, u)
			}
			unsafe[u] = true
		}
		for mi, di := range g.Members {
			if err := claim(di); err != nil {
				return fmt.Errorf("group %d: %w", gi, err)
			}
			def := defs[di]
			if !shape.Memoizable(def) {
				return fmt.Errorf("group %d: member %s is not memoizable", gi, def.Parameter.Name)
			}
			if unsafe[mi] == substitutionSafe(def) {
				return fmt.Errorf("group %d: member %s safety mask is stale", gi, def.Parameter.Name)
			}
		}
		if shape.Of(defs[g.Members[0]]) != g.fp {
			return fmt.Errorf("group %d: builder no longer matches the stored shape fingerprint", gi)
		}
		g.finish()
	}
	for _, i := range sp.Loose {
		if err := claim(i); err != nil {
			return fmt.Errorf("loose: %w", err)
		}
	}
	for i, ok := range seen {
		if !ok {
			return fmt.Errorf("definition index %d is not covered", i)
		}
	}
	sp.defs = defs
	return nil
}

// resolveEntries pins one shape-memo entry per plan group in a single
// pass under the table lock — the only mutex acquisition of a planned
// stage. The entries live in the runner-wide table, so a planned
// stage's built shapes are reused by later Publish calls, the
// communication/robustness/versions extensions, and repeated Runs, and
// a resumed stage finds the entries seedMemoFromJournal already
// registered.
func (r *Runner) resolveEntries(server framework.ServerFramework, sp *serverPlan) []*shapeEntry {
	if len(sp.Groups) == 0 {
		return nil
	}
	entries := make([]*shapeEntry, len(sp.Groups))
	d := r.dedup
	d.mu.Lock()
	for gi := range sp.Groups {
		key := shapeKey{server: server.Name(), fp: sp.Groups[gi].fp}
		e := d.entries[key]
		if e == nil {
			e = &shapeEntry{tests: make([]testMemo, len(r.clients))}
			// The plan proves single-member shapes up front; their
			// builders skip template construction (see shapeEntry.solo).
			// Entries pre-seeded from a resume journal keep whatever the
			// journaled run decided.
			e.solo = len(sp.Groups[gi].Members) == 1
			d.entries[key] = e
		}
		entries[gi] = e
	}
	d.mu.Unlock()
	return entries
}

// runServer executes one server's stage shape-first and merges the
// outcome into res: workers own whole plan items (a shape group, or
// one loose class), so no two workers ever touch the same memo entry
// and the execution phase takes no locks. Outcomes fold into
// per-worker columnar shards that tree-merge at the end.
func (r *Runner) runServer(ctx context.Context, server framework.ServerFramework, res *Result) error {
	sp, err := r.planFor(server)
	if err != nil {
		return err
	}
	defs := sp.defs
	workers := r.workers()
	var failures [][]TestResult
	if r.cfg.KeepFailures {
		failures = make([][]TestResult, len(defs))
	}
	prog := newProgress(r.cfg.Progress, server.Name(), len(defs))
	defer prog.close()

	// Resume: re-seed the shape memo table from the journal, then replay
	// every journaled cell into a dedicated shard before execution
	// starts. The executed remainder then takes exactly the paths the
	// interrupted run would have taken.
	replay := r.replayPlan(server, defs)
	var replayShard *shard
	if replay != nil {
		if err := r.seedMemoFromJournal(server, defs, replay); err != nil {
			return err
		}
		replayShard, err = r.replayStage(server, replay, failures, prog)
		if err != nil {
			return err
		}
	}
	entries := r.resolveEntries(server, sp)

	r.met.workers.Set(int64(workers))
	stageStart := r.met.now()
	shards := make([]*shard, workers)
	for w := range shards {
		shards[w] = newShard(len(r.clients), len(r.profiles))
	}
	errs := make([]error, workers)
	dispatch(ctx, workers, len(sp.Groups)+len(sp.Loose), func(w, it int) {
		var err error
		if it < len(sp.Groups) {
			err = r.runPlannedGroup(ctx, server, defs, &sp.Groups[it], entries[it], replay, shards[w], failures, prog)
		} else if di := sp.Loose[it-len(sp.Groups)]; replay[di].Trace == "" {
			_, err = r.runService(ctx, server, defs[di], di, r.publishLoose(server, defs[di]), shards[w], failures, prog)
		}
		if err != nil && errs[w] == nil {
			errs[w] = err
		}
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("publish on %s: %w", server.Name(), err)
		}
	}
	if replayShard != nil {
		shards = append(shards, replayShard)
	}
	r.mergeServer(res, server.Name(), len(defs), shards, failures)
	r.obs.Emit(obs.Event{
		Trace:        obs.TraceID(server.Name()),
		Stage:        "server-stage",
		Server:       server.Name(),
		Detail:       fmt.Sprintf("%d services", len(defs)),
		ElapsedNanos: int64(r.met.since(stageStart)),
	})
	return nil
}

// runPlannedGroup executes one shape group on its single owning
// worker. Members run individually — through the memo code
// (publishEntry/testFor) — until the entry's test slots are all
// filled; every later safe member is then served by the clone
// broadcast: one multiplied fold of the representative's outcome row,
// with the memo-hit counters batched per group. Unsafe members always
// take the individual path, as do all members of unverified shapes
// (publishEntry degrades them to per-class fallbacks).
func (r *Runner) runPlannedGroup(ctx context.Context, server framework.ServerFramework, defs []services.Definition,
	g *planGroup, e *shapeEntry, replay map[int]journal.Record,
	sh *shard, failures [][]TestResult, prog *progress) error {
	// slotsFilled means every test slot of e is known-filled, so a safe
	// clone's row is e's codes with the executed bit cleared. It becomes
	// true after any member runs testFor across the full roster while
	// holding a verified memo — including a memo seeded entirely from a
	// resumed journal.
	slotsFilled := false
	var clones []int
	var firstErr error
	for mi, di := range g.Members {
		if _, ok := replay[di]; ok {
			continue
		}
		if slotsFilled && g.safe[mi] {
			clones = append(clones, di)
			continue
		}
		slot := r.publishEntry(e, server, defs[di], false)
		memo, err := r.runService(ctx, server, defs[di], di, slot, sh, failures, prog)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		slotsFilled = slotsFilled || memo
	}
	if len(clones) > 0 {
		r.broadcastClones(server, defs, g, e, clones, sh, failures, prog)
	}
	return firstErr
}

// broadcastClones resolves a group's remaining safe members in one
// columnar step. Counter parity with serving each clone individually:
// publishEntry's memoized branch contributes publishTotal, pubTotal,
// pubHits, publishMemoized and wsiMemoized; testFor's memo-hit branch
// contributes testTotal (both), testMemoized per client. Those sums
// are batched here; the outcome row is the representative's with the
// executed bit cleared — exactly what testFor returns for a clone —
// so the fold, the Failures index, and the journal see the same data
// as for an individually served clone.
func (r *Runner) broadcastClones(server framework.ServerFramework, defs []services.Definition,
	g *planGroup, e *shapeEntry, clones []int,
	sh *shard, failures [][]TestResult, prog *progress) {
	d, m := r.dedup, r.met
	nc := len(r.clients)
	k := int64(len(clones))
	m.publishTotal.Add(k)
	d.pubTotal.Add(k)
	d.pubHits.Add(k)
	m.publishMemoized.Add(k)
	m.wsiMemoized.Add(k)
	kt := k * int64(nc)
	m.testTotal.Add(kt)
	d.testTotal.Add(kt)
	m.testMemoized.Add(kt)

	codes := make([]outcomeCode, nc)
	for ci := 0; ci < nc; ci++ {
		codes[ci] = e.tests[ci].code &^ codeExecuted
	}
	errored := r.foldCodes(sh, server.Name(), e.flagged, e.profiles, codes, len(clones))
	keep := failures != nil && errored
	if keep || r.ckpt != nil {
		for _, di := range clones {
			class := defs[di].Parameter.Name
			if keep {
				failures[di] = r.failsFor(server.Name(), class, codes)
			}
			r.journalClone(server.Name(), class, e, codes)
		}
	}
	prog.add(len(clones))
}

// runService completes one individually published class: a rejected
// class is journaled as resolved; a published one runs its client
// tests (testFor), folds into sh and is journaled. It reports whether
// the tests went through a verified shape memo, which leaves every
// test slot of the entry filled.
func (r *Runner) runService(ctx context.Context, server framework.ServerFramework, def services.Definition,
	di int, slot publishSlot, sh *shard, failures [][]TestResult, prog *progress) (memo bool, err error) {
	defer prog.serviceDone()
	switch {
	case slot.err != nil:
		return false, slot.err
	case !slot.ok:
		r.journalRejected(server, def, slot)
		return false, nil
	}
	st := svcState{
		svc:      slot.svc,
		mode:     slot.mode,
		verified: slot.verified,
		codes:    make([]outcomeCode, len(r.clients)),
	}
	for ci := range r.clients {
		st.codes[ci] = r.testFor(ctx, &st.svc, ci)
	}
	fails := r.foldService(&st, sh)
	if failures != nil {
		failures[di] = fails
	}
	r.journalService(&st)
	return st.svc.memo != nil, nil
}

// PlanServerSummary is one server stage's row of a PlanSummary.
type PlanServerSummary struct {
	Server string
	// Classes = Shapes' builders + Clones + Unsafe + Loose.
	Classes int
	// Shapes is the number of distinct shape groups.
	Shapes int
	// Clones counts safe non-builder members — the classes the clone
	// broadcast can serve.
	Clones int
	// Unsafe counts non-builder members routed per-class by the
	// substitution-safety predicates; Loose counts classes outside the
	// memo layer entirely.
	Unsafe int
	Loose  int
}

// PlanSummary describes a campaign execution plan — the -report plan
// data. Building it resolves the plan (cache load or catalog walk) but
// runs nothing.
type PlanSummary struct {
	// Fingerprint is the plan's content address; Source is "built",
	// "cache" or "shared". Reference reports that the reference path
	// runs: every class loose, no shape groups.
	Fingerprint string
	Source      string
	Reference   bool
	Classes     int
	Shapes      int
	Clones      int
	Unsafe      int
	Loose       int
	Servers     []PlanServerSummary
}

// PlanSummary resolves and summarizes the runner's execution plan.
func (r *Runner) PlanSummary() (*PlanSummary, error) {
	p, err := r.ensurePlan()
	if err != nil {
		return nil, err
	}
	sum := &PlanSummary{
		Fingerprint: p.fingerprint,
		Source:      p.source,
		Reference:   r.cfg.Reference,
		Classes:     p.classes,
		Shapes:      p.shapes,
	}
	for _, name := range p.order {
		sp := p.servers[name]
		row := PlanServerSummary{
			Server:  name,
			Classes: sp.Defs,
			Shapes:  len(sp.Groups),
			Loose:   len(sp.Loose),
		}
		// Builders run the full path whether or not they are themselves
		// substitution-safe, so only non-builder members split into
		// clones and unsafe — keeping Classes = Shapes+Clones+Unsafe+Loose
		// an exact identity.
		for gi := range sp.Groups {
			g := &sp.Groups[gi]
			for mi := 1; mi < len(g.Members); mi++ {
				if g.safe[mi] {
					row.Clones++
				} else {
					row.Unsafe++
				}
			}
		}
		sum.Clones += row.Clones
		sum.Unsafe += row.Unsafe
		sum.Loose += row.Loose
		sum.Servers = append(sum.Servers, row)
	}
	return sum, nil
}
