package campaign

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"wsinterop/internal/faultinject"
	"wsinterop/internal/framework"
	"wsinterop/internal/obs"
	"wsinterop/internal/soap"
	"wsinterop/internal/transport"
)

// This file implements the Robustness mode of the communication
// extension (`interop -faults`): every (published service × client)
// exchange is repeated once per catalog fault with a wire-level fault
// injector between client and host, and the outcome is classified
// into the robustness taxonomy below. The mode is the adverse-
// conditions complement of RunCommunication — where that run proves
// clean combinations complete the round trip, this one proves the
// client surfaces (or recovers from) every failure the wire can
// signal, and that no wire-signaled failure is reported as success.
// It is a descriptor on the wire-matrix engine (wire.go), which makes
// it deterministic at any worker count and journals, resumes and
// merges it under <checkpoint>/faults.

// RobustOutcome classifies one (service × client × fault) cell.
type RobustOutcome int

// Robustness outcomes.
const (
	// RobustSkipped: the static steps blocked the combination or the
	// artifacts expose nothing to invoke; no exchange happened.
	RobustSkipped RobustOutcome = iota + 1
	// RobustDetected: the client surfaced the injected fault — a typed
	// transport/decode error, or response validation rejecting a
	// payload that no longer matches the declared response message.
	RobustDetected
	// RobustMasked: the round trip succeeded with intact echo
	// semantics despite the fault; the client absorbed a conformance
	// violation (e.g. a wrong Content-Type) without noticing.
	RobustMasked
	// RobustWrongSuccess: the client reported success although the
	// wire signaled failure or the payload was corrupted — the
	// status-blind bug class this mode exists to catch.
	RobustWrongSuccess
	// RobustRecovered: the invocation succeeded after at least one
	// retry; the retry policy turned a transient fault into success.
	RobustRecovered
)

// String implements fmt.Stringer.
func (o RobustOutcome) String() string {
	switch o {
	case RobustSkipped:
		return "skipped"
	case RobustDetected:
		return "detected-fault"
	case RobustMasked:
		return "masked-fault"
	case RobustWrongSuccess:
		return "wrong-success"
	case RobustRecovered:
		return "retry-recovered"
	default:
		return fmt.Sprintf("RobustOutcome(%d)", int(o))
	}
}

// robustOutcomes lists every robustness outcome, for journal decoding.
var robustOutcomes = []RobustOutcome{RobustSkipped, RobustDetected, RobustMasked, RobustWrongSuccess, RobustRecovered}

// RobustCounts aggregates cells of one matrix slice.
type RobustCounts struct {
	Cells        int
	Skipped      int
	Detected     int
	Masked       int
	WrongSuccess int
	Recovered    int
}

// Add folds one outcome into the counts.
func (c *RobustCounts) Add(o RobustOutcome) {
	c.Cells++
	switch o {
	case RobustSkipped:
		c.Skipped++
	case RobustDetected:
		c.Detected++
	case RobustMasked:
		c.Masked++
	case RobustWrongSuccess:
		c.WrongSuccess++
	case RobustRecovered:
		c.Recovered++
	}
}

// add accumulates another partial count.
func (c *RobustCounts) add(o *RobustCounts) {
	c.Cells += o.Cells
	c.Skipped += o.Skipped
	c.Detected += o.Detected
	c.Masked += o.Masked
	c.WrongSuccess += o.WrongSuccess
	c.Recovered += o.Recovered
}

// RobustResult is the (server × client × fault) robustness matrix,
// aggregated along its two presentation axes.
type RobustResult struct {
	// Faults lists the catalog rows in their fixed order.
	Faults []string
	// Servers maps server name → fault name → counts.
	Servers     map[string]map[string]*RobustCounts
	ServerOrder []string
	// Clients maps client name → counts across all servers and faults.
	Clients     map[string]*RobustCounts
	ClientOrder []string
	// PathCollisions counts deployments that needed a suffixed path.
	PathCollisions int
}

// FaultTotals sums each fault row across servers.
func (r *RobustResult) FaultTotals() map[string]*RobustCounts {
	totals := make(map[string]*RobustCounts, len(r.Faults))
	for _, f := range r.Faults {
		t := &RobustCounts{}
		for _, server := range r.ServerOrder {
			t.add(r.Servers[server][f])
		}
		totals[f] = t
	}
	return totals
}

// Totals sums the whole matrix.
func (r *RobustResult) Totals() RobustCounts {
	var t RobustCounts
	for _, server := range r.ServerOrder {
		for _, f := range r.Faults {
			t.add(r.Servers[server][f])
		}
	}
	return t
}

// robustRetryPolicy builds the per-cell client policy: bounded
// attempts, exponential backoff with a deterministic jitter, a no-op
// sleeper (the matrix must be wall-clock-free), and an Annotate hook
// that stamps the fault directive plus attempt number onto every
// request and records how many attempts ran.
func robustRetryPolicy(directive string, attempts *int) *transport.RetryPolicy {
	return &transport.RetryPolicy{
		MaxAttempts: 2,
		BaseDelay:   time.Millisecond,
		MaxDelay:    4 * time.Millisecond,
		Jitter:      func(attempt int, d time.Duration) time.Duration { return d + time.Duration(attempt)*time.Microsecond },
		Sleep:       func(context.Context, time.Duration) error { return nil },
		Annotate: func(attempt int, h http.Header) {
			*attempts = attempt
			h.Set(faultinject.HeaderFault, directive)
			h.Set(faultinject.HeaderAttempt, strconv.Itoa(attempt))
		},
	}
}

// robustExchange is one completed echo invocation of either wire
// mode, bundled for classification.
type robustExchange struct {
	resp       *soap.Message
	wantLocal  string
	sent       map[string]string
	probeField string
}

// check applies the client-side checks both wire taxonomies build on:
// shaped is the deserialization check a generated proxy performs
// against the WSDL-declared response message (correct wrapper name and
// exactly the expected echo fields), echoed that the probe value came
// back intact.
func (x *robustExchange) check() (shaped, echoed bool) {
	echo, _ := x.resp.Field(x.probeField)
	echoed = echo == x.sent[x.probeField]
	if x.resp.Local != x.wantLocal || len(x.resp.Fields) != len(x.sent) {
		return false, echoed
	}
	for name := range x.sent {
		if _, ok := x.resp.Fields[name]; !ok {
			return false, echoed
		}
	}
	return true, echoed
}

// classifyRobust maps one exchange outcome into the taxonomy. Order
// matters: a surfaced error is always detection; an invalid response
// shape counts as detection too (the proxy's deserialization
// validation rejects it); a success that needed retries is recovery;
// a success against a fault the wire unambiguously signaled is the
// wrong-success bug class; a corrupted-but-accepted echo likewise;
// everything else the client absorbed silently.
func classifyRobust(f faultinject.Fault, attempts int, x *robustExchange, err error) RobustOutcome {
	if err != nil {
		return RobustDetected
	}
	shaped, echoed := x.check()
	if !shaped {
		return RobustDetected
	}
	if attempts > 1 {
		return RobustRecovered
	}
	if f.MustError || !echoed {
		return RobustWrongSuccess
	}
	return RobustMasked
}

// RunRobustness executes the Robustness mode across every configured
// server framework. The matrix is deterministic at any worker count,
// journals per completed service cell when a checkpoint is configured,
// and resumes into an identical result.
func (r *Runner) RunRobustness(ctx context.Context) (*RobustResult, error) {
	return r.robustness(ctx, false, nil)
}

// MergeRobustness folds completed shard fault journals (the
// <checkpoint>/faults stores) into one RobustResult identical to a
// single-process run of the same configuration, on the terms of
// MergeVersions: every shard must have completed every server stage,
// and the coordinator injects no fault — every cell replays.
func (r *Runner) MergeRobustness(ctx context.Context, dirs []string) (*RobustResult, error) {
	return r.robustness(ctx, true, dirs)
}

// robustness runs or merges the fault matrix on the wire engine.
func (r *Runner) robustness(ctx context.Context, merge bool, dirs []string) (*RobustResult, error) {
	catalog := r.faults
	if catalog == nil {
		catalog = faultinject.Catalog()
	}
	m := &wireMode[RobustOutcome]{
		name:     "faults",
		outcomes: robustOutcomes,
		skipped:  RobustSkipped,
		counters: r.met.robust,
	}
	for _, f := range catalog {
		m.columns = append(m.columns, f.Name)
	}
	m.stage = func(_ string, host *transport.Host) wireExchange[RobustOutcome] {
		injector := faultinject.New(host)
		// Keep the matrix wall-clock-free: the delay fault is classified by
		// what the client does with a slow-but-valid response, not by
		// actually stalling thousands of cells.
		injector.Sleep = func(time.Duration) {}
		injector.Obs = r.obs
		return func(ctx context.Context, client framework.ClientFramework, svc *PublishedService,
			ep *transport.Endpoint, op string, col int) RobustOutcome {
			f := catalog[col]
			req, probeField := buildEchoRequest(ep, op, svc.Class)
			// The cell's trace carries (server, class, client, fault), so the
			// injector's fired-fault log joins back to exactly one matrix cell.
			trace := obs.TraceID(svc.Server, svc.Class, client.Name(), f.Name)
			attempts := 0
			bridge := transport.NewLocalBridge(injector).
				WithRetry(robustRetryPolicy(f.Directive, &attempts)).
				WithObs(r.obs)
			resp, err := bridge.Invoke(obs.WithTrace(ctx, trace), ep.Path, req)
			var x *robustExchange
			if err == nil {
				x = &robustExchange{resp: resp, wantLocal: op + "Response", sent: req.Fields, probeField: probeField}
			}
			return classifyRobust(f, attempts, x, err)
		}
	}
	mat, err := runWire[RobustOutcome, RobustCounts](ctx, r, m, merge, dirs)
	if err != nil {
		return nil, err
	}
	return &RobustResult{
		Faults:         m.columns,
		Servers:        mat.servers,
		ServerOrder:    mat.serverOrder,
		Clients:        mat.clients,
		ClientOrder:    mat.clientOrder,
		PathCollisions: mat.collisions,
	}, nil
}
