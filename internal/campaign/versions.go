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
// The mode is a descriptor on the wire-matrix engine (wire.go), which
// makes it deterministic at any worker count and journals, resumes and
// merges it under <checkpoint>/versions.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"

	"wsinterop/internal/framework"
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

// versionOutcomes lists every version outcome, for journal decoding.
var versionOutcomes = []VersionOutcome{VersionSkipped, VersionAccepted, VersionTypedReject, VersionMishandled}

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

// classifyVersion maps one exchange into the taxonomy; x is consulted
// only when err is nil. Order matters: a surfaced error is always a
// typed reject (the per-error-type breakdown is the transport's
// concern; the matrix only requires that the refusal was a typed Go
// error, which every transport error is); a success against the
// hybrid-fault wire swallowed a failure; a success with a corrupted or
// misshapen echo accepted wrong data; a success whose response wire
// mixed versions absorbed a hybrid without noticing. Only a clean echo
// over a coherent wire accepts.
func classifyVersion(sc VersionScenario, cap *wireCapture, x *robustExchange, err error) VersionOutcome {
	if err != nil {
		return VersionTypedReject
	}
	if sc.HybridFault {
		return VersionMishandled
	}
	if shaped, echoed := x.check(); !shaped || !echoed {
		return VersionMishandled
	}
	if cap != nil && soap.Detect(cap.body, cap.contentType) == soap.VersionHybrid {
		return VersionMishandled
	}
	return VersionAccepted
}

// RunVersions executes the version matrix across every configured
// server framework. The matrix is deterministic at any worker count,
// journals per completed service cell when a checkpoint is
// configured, and resumes into a byte-identical result.
func (r *Runner) RunVersions(ctx context.Context) (*VersionResult, error) {
	return r.versions(ctx, false, nil)
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
// single-process run of the same configuration. Every shard must hold
// its completion sentinel for every server stage; an interrupted shard
// is resumed in place before merging. The coordinator publishes and
// deploys like a run — so PathCollisions is the single-process count —
// but exchanges nothing: every cell replays from its journal record.
func (r *Runner) MergeVersions(ctx context.Context, dirs []string) (*VersionResult, error) {
	return r.versions(ctx, true, dirs)
}

// versions runs or merges the version matrix on the wire engine.
func (r *Runner) versions(ctx context.Context, merge bool, dirs []string) (*VersionResult, error) {
	scenarios := VersionScenarios()
	m := &wireMode[VersionOutcome]{
		name:     "versions",
		outcomes: versionOutcomes,
		skipped:  VersionSkipped,
		pinned:   true,
		counters: r.met.versions,
	}
	for _, sc := range scenarios {
		m.columns = append(m.columns, sc.Name)
	}
	m.stage = func(server string, host *transport.Host) wireExchange[VersionOutcome] {
		host.SetVersionPolicy(&transport.VersionPolicy{
			Codec:      soap.V11,
			Strictness: framework.VersionStrictness(server),
		})
		wire := newVersionWire(host)
		return func(ctx context.Context, client framework.ClientFramework, svc *PublishedService,
			ep *transport.Endpoint, op string, col int) VersionOutcome {
			sc := scenarios[col]
			req, probeField := buildEchoRequest(ep, op, svc.Class)
			trace := obs.TraceID("versions", svc.Server, svc.Class, client.Name(), sc.Name)
			bridge := transport.NewLocalBridge(wire).
				WithCodec(sc.Codec).
				WithStrictness(framework.VersionStrictness(client.Name())).
				WithRetry(versionRetryPolicy(sc.Name)).
				WithObs(r.obs)
			resp, err := bridge.Invoke(obs.WithTrace(ctx, trace), ep.Path, req)
			x := robustExchange{resp: resp, wantLocal: op + "Response", sent: req.Fields, probeField: probeField}
			return classifyVersion(sc, wire.take(trace), &x, err)
		}
	}
	mat, err := runWire[VersionOutcome, VersionCounts](ctx, r, m, merge, dirs)
	if err != nil {
		return nil, err
	}
	return &VersionResult{
		Scenarios:      m.columns,
		Servers:        mat.servers,
		ServerOrder:    mat.serverOrder,
		Clients:        mat.clients,
		ClientOrder:    mat.clientOrder,
		PathCollisions: mat.collisions,
	}, nil
}
