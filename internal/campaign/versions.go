package campaign

// Versions mode (`interop -versions`): the hybrid-version interop
// matrix. Every (published service × client) pair is exchanged once
// per version scenario — pure SOAP 1.1, pure SOAP 1.2, and two
// deliberately hybrid wires — against a host that declares its
// framework's version strictness, and the outcome is classified as
// accept, typed-reject, or silent-mishandle. The mode measures the
// paper's version-mismatch failure class end to end: a strict
// framework must refuse a mixed-version message with a typed error,
// and no swallowed mismatch (a hybrid wire or a relayed fault
// reported as success) may ever land in the accept bucket.
//
// Determinism follows the robustness-mode contract: cells land in
// pre-indexed slots, the fold runs serially in fixed (server,
// service, client, scenario) order, and all wire mutation is steered
// by per-request directive headers — so worker count and scheduling
// never change a cell. The matrix additionally journals (one record
// per service cell, under <checkpoint>/versions), resumes, and merges
// across shard leases; every per-cell quantity folds commutatively,
// which is what makes replay order-free.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"wsinterop/internal/framework"
	"wsinterop/internal/journal"
	"wsinterop/internal/obs"
	"wsinterop/internal/soap"
	"wsinterop/internal/transport"
)

// HeaderVersionScenario is the request header steering the version
// wire: the scenario name selects which hybrid mutation (if any) the
// wire applies to the exchange. Like the fault injector's directive
// header, it keeps all wire state per-request, so one wire instance
// serves any number of concurrent cells deterministically.
const HeaderVersionScenario = "X-Version-Scenario"

// Scenario names. The catalog order is fixed and covered by the
// checkpoint fingerprint.
const (
	scenarioV11           = "v11"
	scenarioV12           = "v12"
	scenarioHybridHeaders = "hybrid-headers"
	scenarioHybridFault   = "hybrid-fault"
)

// VersionScenario is one column group of the version matrix: the
// envelope codec the client speaks plus the wire mutation applied to
// the exchange.
type VersionScenario struct {
	// Name labels the scenario and is the wire directive value.
	Name string
	// Codec is the envelope version the client marshals and expects.
	Codec soap.Codec
	// HybridRequest rewrites the request's Content-Type to the SOAP
	// 1.2 media type while the body stays a 1.1 envelope — the
	// mixed-framing request the paper's version-mismatch findings
	// describe.
	HybridRequest bool
	// HybridFault replaces a successful response body with a SOAP 1.2
	// fault while keeping the 1.1 Content-Type and the 200 status — a
	// relayed fault in the wrong version vocabulary. A client that
	// reports success against this wire swallowed a failure.
	HybridFault bool
}

// VersionScenarios returns the scenario catalog in its fixed order:
// both pure versions, then the two hybrid wires.
func VersionScenarios() []VersionScenario {
	return []VersionScenario{
		{Name: scenarioV11, Codec: soap.V11},
		{Name: scenarioV12, Codec: soap.V12},
		{Name: scenarioHybridHeaders, Codec: soap.V11, HybridRequest: true},
		{Name: scenarioHybridFault, Codec: soap.V11, HybridFault: true},
	}
}

// VersionOutcome classifies one (service × client × scenario) cell.
type VersionOutcome int

// Version-matrix outcomes.
const (
	// VersionSkipped: the static steps blocked the combination or the
	// artifacts expose nothing to invoke; no exchange happened.
	VersionSkipped VersionOutcome = iota + 1
	// VersionAccepted: the round trip completed with intact echo
	// semantics over a wire that never mixed versions.
	VersionAccepted
	// VersionTypedReject: the client surfaced a typed error — a
	// *transport.VersionMismatchError, a relayed fault, or any other
	// refusal the caller can dispatch on.
	VersionTypedReject
	// VersionMishandled: the client reported success although the
	// exchange was wrong — a swallowed relayed fault, a corrupted or
	// misshapen echo, or a response wire that mixed versions.
	VersionMishandled
)

// String implements fmt.Stringer; the rendered form is also the
// journal encoding of an outcome.
func (o VersionOutcome) String() string {
	switch o {
	case VersionSkipped:
		return "skipped"
	case VersionAccepted:
		return "accept"
	case VersionTypedReject:
		return "typed-reject"
	case VersionMishandled:
		return "silent-mishandle"
	default:
		return fmt.Sprintf("VersionOutcome(%d)", int(o))
	}
}

// parseVersionOutcome inverts String for journal replay.
func parseVersionOutcome(s string) (VersionOutcome, error) {
	for _, o := range []VersionOutcome{VersionSkipped, VersionAccepted, VersionTypedReject, VersionMishandled} {
		if o.String() == s {
			return o, nil
		}
	}
	return 0, fmt.Errorf("unknown version outcome %q", s)
}

// VersionCounts aggregates cells of one matrix slice. Every field is
// a commutative sum, so partial counts fold in any order — the
// property journal replay and the shard merge rely on.
type VersionCounts struct {
	Cells      int
	Skipped    int
	Accepted   int
	Rejected   int
	Mishandled int
}

// Add folds one outcome into the counts.
func (c *VersionCounts) Add(o VersionOutcome) {
	c.Cells++
	switch o {
	case VersionSkipped:
		c.Skipped++
	case VersionAccepted:
		c.Accepted++
	case VersionTypedReject:
		c.Rejected++
	case VersionMishandled:
		c.Mishandled++
	}
}

// add accumulates another partial count.
func (c *VersionCounts) add(o *VersionCounts) {
	c.Cells += o.Cells
	c.Skipped += o.Skipped
	c.Accepted += o.Accepted
	c.Rejected += o.Rejected
	c.Mishandled += o.Mishandled
}

// VersionResult is the (server × client × scenario) version matrix,
// aggregated along its two presentation axes.
type VersionResult struct {
	// Scenarios lists the catalog columns in their fixed order.
	Scenarios []string
	// Servers maps server name → scenario name → counts.
	Servers     map[string]map[string]*VersionCounts
	ServerOrder []string
	// Clients maps client name → counts across all servers and
	// scenarios.
	Clients     map[string]*VersionCounts
	ClientOrder []string
	// PathCollisions counts deployments that needed a suffixed path.
	PathCollisions int
}

// ScenarioTotals sums each scenario column across servers.
func (r *VersionResult) ScenarioTotals() map[string]*VersionCounts {
	totals := make(map[string]*VersionCounts, len(r.Scenarios))
	for _, sc := range r.Scenarios {
		t := &VersionCounts{}
		for _, server := range r.ServerOrder {
			t.add(r.Servers[server][sc])
		}
		totals[sc] = t
	}
	return totals
}

// Totals sums the whole matrix.
func (r *VersionResult) Totals() VersionCounts {
	var t VersionCounts
	for _, server := range r.ServerOrder {
		for _, sc := range r.Scenarios {
			t.add(r.Servers[server][sc])
		}
	}
	return t
}

// wireCapture is the final on-the-wire response of one exchange, as
// the client saw it — recorded after every wire mutation, so the
// classification can ask what version(s) the bytes actually spoke.
type wireCapture struct {
	status      int
	contentType string
	body        []byte
}

// versionWire is the scenario-steered middleware between client and
// host: it applies the hybrid request/response mutations and taps the
// final response, keyed by the cell's trace header.
type versionWire struct {
	next http.Handler
	taps sync.Map // trace → *wireCapture
}

func newVersionWire(next http.Handler) *versionWire { return &versionWire{next: next} }

var _ http.Handler = (*versionWire)(nil)

// ServeHTTP implements http.Handler.
func (vw *versionWire) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	scenario := r.Header.Get(HeaderVersionScenario)
	if scenario == scenarioHybridHeaders {
		// The body stays the client's 1.1 envelope; only the framing
		// claims 1.2 — the host-side hybrid.
		r.Header.Set("Content-Type", soap.ContentType12)
	}
	rec := httptest.NewRecorder()
	vw.next.ServeHTTP(rec, r)
	status, ctype, body := rec.Code, rec.Header().Get("Content-Type"), rec.Body.Bytes()
	if scenario == scenarioHybridFault && status == http.StatusOK {
		// Replace the successful response with a 1.2 fault under the
		// unchanged 1.1 Content-Type and 200 status: the wire now
		// unambiguously signals failure, in the wrong vocabulary.
		if fb, err := soap.V12.MarshalFault(&soap.Fault{
			Code: soap.Fault12Receiver, String: "relayed upstream failure",
		}); err == nil {
			body = fb
		}
	}
	if trace := r.Header.Get(obs.TraceHeader); trace != "" {
		vw.taps.Store(trace, &wireCapture{status: status, contentType: ctype, body: body})
	}
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.Header().Del("Content-Length")
	w.Header().Set("Content-Type", ctype)
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// take removes and returns the tapped response of one cell; nil when
// the exchange never produced a response (the cell was skipped).
func (vw *versionWire) take(trace string) *wireCapture {
	v, ok := vw.taps.LoadAndDelete(trace)
	if !ok {
		return nil
	}
	return v.(*wireCapture)
}

// versionRetryPolicy builds the per-cell client policy: a single
// attempt whose Annotate hook stamps the scenario directive onto the
// request — the same header-steered mechanism the fault injector
// uses, so the shared wire stays stateless per request.
func versionRetryPolicy(scenario string) *transport.RetryPolicy {
	return &transport.RetryPolicy{
		Annotate: func(_ int, h http.Header) { h.Set(HeaderVersionScenario, scenario) },
	}
}

// classifyVersion maps one exchange into the taxonomy. Order matters:
// a surfaced error is always a typed reject (the per-error-type
// breakdown is the transport's concern; the matrix only requires that
// the refusal was a typed Go error, which every transport error is);
// a success against the hybrid-fault wire swallowed a failure; a
// success with a corrupted or misshapen echo accepted wrong data; a
// success whose response wire mixed versions absorbed a hybrid
// without noticing. Only a clean echo over a coherent wire accepts.
func classifyVersion(sc VersionScenario, cap *wireCapture, resp *soap.Message, err error,
	wantLocal string, sent map[string]string, probeField string) VersionOutcome {
	if err != nil {
		return VersionTypedReject
	}
	if sc.HybridFault {
		return VersionMishandled
	}
	if resp.Local != wantLocal || len(resp.Fields) != len(sent) {
		return VersionMishandled
	}
	for name := range sent {
		if _, ok := resp.Fields[name]; !ok {
			return VersionMishandled
		}
	}
	if echoed, _ := resp.Field(probeField); echoed != sent[probeField] {
		return VersionMishandled
	}
	if cap != nil && soap.Detect(cap.body, cap.contentType) == soap.VersionHybrid {
		return VersionMishandled
	}
	return VersionAccepted
}

// versionsDirName is the subdirectory of Config.Checkpoint holding
// the version-matrix journal, beside (not inside) the static
// campaign's store — the two record sets have different shapes and
// complete independently.
const versionsDirName = "versions"

// Journal record modes of the versions store.
const (
	versionsMode         = "versions"
	versionsCompleteMode = "versions-complete"
)

// versionTrace is the journal key of one version-matrix service cell.
func versionTrace(server, class string) string {
	return obs.TraceID("versions", server, class)
}

// versionSentinelTrace is the journal key of one shard's completion
// sentinel for a server stage. It embeds the shard coordinates so
// sentinels from different shards never collide in a merge union.
func versionSentinelTrace(shard ShardSpec, server string) string {
	return obs.TraceID("versions-complete", shard.String(), server)
}

// versionCheckpoint is one RunVersions' open journal. Appends are
// mutex-serialized (the store is per-service, not per-cell, so
// contention is negligible) and flushed durably before returning.
type versionCheckpoint struct {
	mu     sync.Mutex
	j      *journal.Journal
	err    error
	loaded map[string]journal.Record

	resumed  *obs.Counter // journal.cells.resumed
	executed *obs.Counter // journal.cells.executed
}

// openVersionCheckpoint opens the versions journal configured by
// Config.Checkpoint (a no-op without one).
func (r *Runner) openVersionCheckpoint() (*versionCheckpoint, error) {
	shard, err := r.shardMeta()
	if err != nil {
		return nil, err
	}
	if r.cfg.Checkpoint == "" {
		if r.cfg.Resume {
			return nil, fmt.Errorf("campaign: Resume requires a Checkpoint directory")
		}
		return nil, nil
	}
	j, err := journal.Open(filepath.Join(r.cfg.Checkpoint, versionsDirName),
		journal.Meta{Fingerprint: r.checkpointFingerprint(), Shard: shard}, r.cfg.Resume)
	if err != nil {
		return nil, err
	}
	j.AfterAppend = r.cfg.checkpointProbe
	vc := &versionCheckpoint{
		j:        j,
		resumed:  r.obs.Counter("journal.cells.resumed"),
		executed: r.obs.Counter("journal.cells.executed"),
	}
	if r.cfg.Resume {
		recs := j.Records()
		vc.loaded = make(map[string]journal.Record, len(recs))
		for _, rec := range recs {
			vc.loaded[rec.Trace] = rec
		}
	}
	return vc, nil
}

// append records one completed cell durably; nil-safe.
func (vc *versionCheckpoint) append(rec journal.Record) {
	if vc == nil {
		return
	}
	vc.executed.Inc()
	vc.mu.Lock()
	defer vc.mu.Unlock()
	if vc.err == nil {
		vc.err = vc.j.Append(rec)
	}
}

// close flushes and closes the journal; nil-safe.
func (vc *versionCheckpoint) close() error {
	if vc == nil {
		return nil
	}
	err := vc.err
	if cerr := vc.j.Close(); err == nil {
		err = cerr
	}
	return err
}

// record looks up a loaded journal record; nil-safe.
func (vc *versionCheckpoint) record(trace string) (journal.Record, bool) {
	if vc == nil || len(vc.loaded) == 0 {
		return journal.Record{}, false
	}
	rec, ok := vc.loaded[trace]
	return rec, ok
}

// newVersionResult builds the empty matrix for this runner's roster.
func (r *Runner) newVersionResult(scenarios []VersionScenario) *VersionResult {
	res := &VersionResult{
		Servers: make(map[string]map[string]*VersionCounts, len(r.servers)),
		Clients: make(map[string]*VersionCounts, len(r.clients)),
	}
	for _, sc := range scenarios {
		res.Scenarios = append(res.Scenarios, sc.Name)
	}
	for _, c := range r.clients {
		res.Clients[c.Name()] = &VersionCounts{}
		res.ClientOrder = append(res.ClientOrder, c.Name())
	}
	return res
}

// RunVersions executes the version matrix across every configured
// server framework. The matrix is deterministic at any worker count,
// journals per completed service cell when a checkpoint is
// configured, and resumes into a byte-identical result.
func (r *Runner) RunVersions(ctx context.Context) (*VersionResult, error) {
	scenarios := VersionScenarios()
	res := r.newVersionResult(scenarios)
	vc, err := r.openVersionCheckpoint()
	if err != nil {
		return nil, err
	}
	for _, server := range r.servers {
		if err := r.runVersionsServer(ctx, server, scenarios, res, vc); err != nil {
			// Close flushes, so every cell completed before the
			// interruption is durable for the resume.
			_ = vc.close()
			return nil, fmt.Errorf("versions on %s: %w", server.Name(), err)
		}
	}
	if err := vc.close(); err != nil {
		return nil, err
	}
	return res, nil
}

// versionSvcState counts one service cell's outstanding (client)
// jobs; the worker that completes the last one journals the cell.
type versionSvcState struct {
	remaining atomic.Int32
}

func (r *Runner) runVersionsServer(ctx context.Context, server framework.ServerFramework,
	scenarios []VersionScenario, res *VersionResult, vc *versionCheckpoint) error {
	serverName := server.Name()
	published, _, err := r.Publish(ctx, server)
	if err != nil {
		return err
	}

	host := transport.NewHost()
	host.SetVersionPolicy(&transport.VersionPolicy{
		Codec:      soap.V11,
		Strictness: framework.VersionStrictness(serverName),
	})
	endpoints, collisions, err := r.deployPublished(host, published)
	if err != nil {
		return err
	}
	res.PathCollisions += collisions
	wire := newVersionWire(host)

	nc, ns := len(r.clients), len(scenarios)
	outcomes := make([]VersionOutcome, len(published)*nc*ns)

	// Resume: replay journaled service cells into their slots and keep
	// them out of the worker feed.
	sentinelTrace := versionSentinelTrace(r.cfg.Shard, serverName)
	_, sentinel := vc.record(sentinelTrace)
	replayed := make([]bool, len(published))
	for si := range published {
		rec, ok := vc.record(versionTrace(serverName, published[si].Class))
		if !ok {
			continue
		}
		if err := r.replayVersionRecord(&rec, ns, outcomes[si*nc*ns:(si+1)*nc*ns]); err != nil {
			return err
		}
		replayed[si] = true
		vc.resumed.Inc()
	}

	states := make([]versionSvcState, len(published))
	for si := range states {
		states[si].remaining.Store(int32(nc))
	}

	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < r.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				si, ci := idx/nc, idx%nc
				r.versionCombination(ctx, wire, r.clients[ci], &published[si],
					endpoints[published[si].Class], scenarios, outcomes[idx*ns:(idx+1)*ns])
				if states[si].remaining.Add(-1) == 0 {
					// All nc client rows of this service are in their slots
					// (the atomic counter orders their writes before this
					// read), so the cell journals complete.
					r.journalVersions(vc, serverName, published[si].Class, ns,
						outcomes[si*nc*ns:(si+1)*nc*ns])
				}
			}
		}()
	}
	interrupted := false
feed:
	for si := range published {
		if replayed[si] {
			continue
		}
		for ci := 0; ci < nc; ci++ {
			select {
			case <-ctx.Done():
				interrupted = true
				break feed
			case jobs <- si*nc + ci:
			}
		}
	}
	close(jobs)
	wg.Wait()
	if interrupted || ctx.Err() != nil {
		return ctx.Err()
	}

	// Serial fixed-order fold: counters land here, inside the
	// determinism contract, never in workers.
	perScenario := make(map[string]*VersionCounts, ns)
	for _, sc := range scenarios {
		perScenario[sc.Name] = &VersionCounts{}
	}
	for idx, o := range outcomes {
		perScenario[scenarios[idx%ns].Name].Add(o)
		res.Clients[r.clients[(idx/ns)%nc].Name()].Add(o)
		r.met.recordVersion(o)
	}
	res.Servers[serverName] = perScenario
	res.ServerOrder = append(res.ServerOrder, serverName)

	if !sentinel {
		// The stage completed cleanly: the sentinel is what merge
		// completeness keys on, and it carries the stage's collision
		// count (the one fold input not reconstructible per cell).
		vc.append(journal.Record{
			Trace:      sentinelTrace,
			Server:     serverName,
			Mode:       versionsCompleteMode,
			Collisions: collisions,
		})
	}
	return nil
}

// versionCombination runs the static steps once for the (service ×
// client) pair, then exchanges one invocation per scenario, writing
// outcomes into the cell slots.
func (r *Runner) versionCombination(ctx context.Context, wire *versionWire,
	client framework.ClientFramework, svc *PublishedService, ep *transport.Endpoint,
	scenarios []VersionScenario, cells []VersionOutcome) {
	op, ok := invocable(client, svc, ep, r.cfg.Reference)
	if !ok || op == "" {
		for i := range cells {
			cells[i] = VersionSkipped
		}
		return
	}
	strict := framework.VersionStrictness(client.Name())
	for vi, sc := range scenarios {
		req, probeField := buildEchoRequest(ep, op, svc.Class)
		trace := obs.TraceID("versions", svc.Server, svc.Class, client.Name(), sc.Name)
		bridge := transport.NewLocalBridge(wire).
			WithCodec(sc.Codec).
			WithStrictness(strict).
			WithRetry(versionRetryPolicy(sc.Name)).
			WithObs(r.obs)
		resp, err := bridge.Invoke(obs.WithTrace(ctx, trace), ep.Path, req)
		cells[vi] = classifyVersion(sc, wire.take(trace), resp, err, op+"Response", req.Fields, probeField)
	}
}

// journalVersions records one fully exchanged service cell: the
// outcome row of every client, in roster and scenario order.
func (r *Runner) journalVersions(vc *versionCheckpoint, server, class string,
	ns int, cells []VersionOutcome) {
	if vc == nil {
		return
	}
	vers := make([]journal.VersionRecord, len(r.clients))
	for ci := range r.clients {
		outs := make([]string, ns)
		for vi := 0; vi < ns; vi++ {
			outs[vi] = cells[ci*ns+vi].String()
		}
		vers[ci] = journal.VersionRecord{Client: r.clients[ci].Name(), Outcomes: outs}
	}
	vc.append(journal.Record{
		Trace:     versionTrace(server, class),
		Server:    server,
		Class:     class,
		Mode:      versionsMode,
		Published: true,
		Versions:  vers,
	})
}

// replayVersionRecord decodes one journaled service cell into its
// outcome slots, validating the record against the roster and the
// scenario catalog (both are fingerprint-pinned, so a mismatch means
// a corrupted store, not a configuration drift).
func (r *Runner) replayVersionRecord(rec *journal.Record, ns int, cells []VersionOutcome) error {
	if rec.Mode != versionsMode {
		return fmt.Errorf("campaign: journal record %s: mode %q is not a versions cell", rec.Trace, rec.Mode)
	}
	if len(rec.Versions) != len(r.clients) {
		return fmt.Errorf("campaign: journal record %s: %d client rows, roster has %d",
			rec.Trace, len(rec.Versions), len(r.clients))
	}
	for ci := range rec.Versions {
		vr := rec.Versions[ci]
		if vr.Client != r.clients[ci].Name() {
			return fmt.Errorf("campaign: journal record %s: row %d is for client %q, roster has %q",
				rec.Trace, ci, vr.Client, r.clients[ci].Name())
		}
		if len(vr.Outcomes) != ns {
			return fmt.Errorf("campaign: journal record %s: %d outcomes for client %q, catalog has %d scenarios",
				rec.Trace, len(vr.Outcomes), vr.Client, ns)
		}
		for vi, s := range vr.Outcomes {
			o, err := parseVersionOutcome(s)
			if err != nil {
				return fmt.Errorf("campaign: journal record %s: %w", rec.Trace, err)
			}
			cells[ci*ns+vi] = o
		}
	}
	return nil
}

// MergeVersions folds the shard version journals under dirs into one
// VersionResult, using a runner built from opts — which must describe
// the exact campaign the shards ran. The package-level convenience
// form of Runner.MergeVersions.
func MergeVersions(ctx context.Context, dirs []string, opts ...Option) (*VersionResult, error) {
	return New(opts...).MergeVersions(ctx, dirs)
}

// MergeVersions folds completed shard version journals (the
// <checkpoint>/versions stores) into one VersionResult identical to a
// single-process run of the same configuration, except that
// PathCollisions sums each shard's deploy-time count — collisions are
// a property of which classes co-deploy, so a sharded campaign may
// legitimately observe fewer than an unsharded one. Every shard must
// hold its completion sentinel for every server stage; an interrupted
// shard is resumed in place before merging. The merge itself
// exchanges nothing: every cell replays from its journal record, and
// because every fold input is a commutative sum, replay order is
// free.
func (r *Runner) MergeVersions(ctx context.Context, dirs []string) (*VersionResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("campaign: merge needs at least one shard journal directory")
	}
	if r.cfg.Shard.enabled() {
		return nil, fmt.Errorf("campaign: the merge coordinator runs unsharded (drop shard %s)", r.cfg.Shard)
	}
	if r.cfg.Checkpoint != "" || r.cfg.Resume {
		return nil, fmt.Errorf("campaign: merge reads shard journals; it does not take its own Checkpoint/Resume")
	}

	fp := r.checkpointFingerprint()
	metas := make([]*journal.Meta, 0, len(dirs))
	loaded := make(map[string]journal.Record)
	for _, dir := range dirs {
		vdir := filepath.Join(dir, versionsDirName)
		meta, recs, err := journal.Load(vdir)
		if err != nil {
			return nil, err
		}
		if meta.Fingerprint != fp {
			return nil, fmt.Errorf("%w: %s (merge must be invoked with the exact configuration the shards ran)",
				journal.ErrFingerprint, vdir)
		}
		spec := ShardSpec{}
		if sh := meta.Shard; sh != nil {
			spec = ShardSpec{Index: sh.Index, Count: sh.Count}
			if sh.Lease != "" && sh.Lease != shardLease(fp, sh.Index, sh.Count) {
				return nil, fmt.Errorf("campaign: %s: lease %s was not issued for shard %d/%d of this campaign",
					vdir, sh.Lease, sh.Index, sh.Count)
			}
		}
		for _, rec := range recs {
			if prev, dup := loaded[rec.Trace]; dup {
				return nil, fmt.Errorf("campaign: shard journals overlap: cell %s (%s on %s) journaled twice",
					rec.Trace, prev.Class, prev.Server)
			}
			loaded[rec.Trace] = rec
		}
		// Completeness: a server stage appends its sentinel only after
		// every service cell of the stage is journaled, so the sentinel
		// set is the completion proof.
		for _, server := range r.servers {
			if _, ok := loaded[versionSentinelTrace(spec, server.Name())]; !ok {
				return nil, fmt.Errorf("campaign: %s holds no completed %s stage — resume the shard to completion first",
					vdir, server.Name())
			}
		}
		metas = append(metas, meta)
	}
	if err := journal.CheckShards(metas); err != nil {
		return nil, err
	}

	scenarios := VersionScenarios()
	ns := len(scenarios)
	res := r.newVersionResult(scenarios)
	roster := make(map[string]bool, len(r.servers))
	for _, server := range r.servers {
		name := server.Name()
		roster[name] = true
		perScenario := make(map[string]*VersionCounts, ns)
		for _, sc := range scenarios {
			perScenario[sc.Name] = &VersionCounts{}
		}
		res.Servers[name] = perScenario
		res.ServerOrder = append(res.ServerOrder, name)
	}
	resumed := r.obs.Counter("journal.cells.resumed")
	traces := make([]string, 0, len(loaded))
	for trace := range loaded {
		traces = append(traces, trace)
	}
	sort.Strings(traces)
	cells := make([]VersionOutcome, len(r.clients)*ns)
	for _, trace := range traces {
		rec := loaded[trace]
		if !roster[rec.Server] {
			return nil, fmt.Errorf("campaign: journal record %s is for server %q, not in this roster", rec.Trace, rec.Server)
		}
		if rec.Mode == versionsCompleteMode {
			res.PathCollisions += rec.Collisions
			continue
		}
		if err := r.replayVersionRecord(&rec, ns, cells); err != nil {
			return nil, err
		}
		perScenario := res.Servers[rec.Server]
		for idx, o := range cells {
			perScenario[scenarios[idx%ns].Name].Add(o)
			res.Clients[r.clients[idx/ns].Name()].Add(o)
			r.met.recordVersion(o)
		}
		resumed.Inc()
	}
	return res, nil
}
