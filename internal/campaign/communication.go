package campaign

import (
	"context"
	"fmt"

	"wsinterop/internal/artifact"
	"wsinterop/internal/framework"
	"wsinterop/internal/obs"
	"wsinterop/internal/soap"
	"wsinterop/internal/transport"
	"wsinterop/internal/wsdl"
)

// This file implements the campaign extension for the Communication
// and Execution steps (4 and 5 of the paper's Fig. 1), which the paper
// scopes out and announces as future work.
//
// For every (published service × client) combination the extension:
//
//  1. re-runs artifact generation and verification (steps 2–3);
//  2. classifies combinations whose static steps failed as *blocked*;
//  3. deploys the service on an in-process SOAP host and invokes the
//     proxy's operation through the full HTTP handler path;
//  4. verifies the Execution step by checking the echo semantics.
//
// Two outcomes make the extension informative beyond "everything
// clean works":
//
//   - silent generation failures surface here: tools that emitted a
//     method-less stub without reporting an error (Axis1/CXF/JBossWS
//     on zero-operation WSDLs) cannot invoke anything — the defect
//     the static steps let through is finally observable;
//   - everything that genuinely passed steps 1–3 completes the round
//     trip, quantifying how predictive the three static steps are.

// CommOutcome classifies one combination in the communication step.
type CommOutcome int

// Communication outcomes.
const (
	// CommBlocked: an earlier step errored, no invocation possible.
	CommBlocked CommOutcome = iota + 1
	// CommNoOperations: artifacts exist but expose nothing to invoke
	// (the silent-failure stubs).
	CommNoOperations
	// CommFault: the invocation produced a SOAP fault or transport
	// error.
	CommFault
	// CommEchoMismatch: the call succeeded but the Execution step
	// returned wrong data.
	CommEchoMismatch
	// CommOK: full round trip with correct echo semantics.
	CommOK
)

// String implements fmt.Stringer.
func (o CommOutcome) String() string {
	switch o {
	case CommBlocked:
		return "blocked"
	case CommNoOperations:
		return "no-operations"
	case CommFault:
		return "fault"
	case CommEchoMismatch:
		return "echo-mismatch"
	case CommOK:
		return "ok"
	default:
		return fmt.Sprintf("CommOutcome(%d)", int(o))
	}
}

// CommSummary aggregates the communication extension for one server.
type CommSummary struct {
	Server       string
	Combinations int
	Blocked      int
	NoOperations int
	Faults       int
	Mismatches   int
	Succeeded    int
	// Exchanges and MessageViolations come from the wire-level sniffer
	// (transport.Sniffer): captured request/response pairs and WS-I
	// message-assertion findings among them.
	Exchanges         int
	MessageViolations int
	// PathCollisions counts deployed services whose derived HTTP path
	// collided with an earlier endpoint and needed a deterministic
	// numeric suffix to stay reachable.
	PathCollisions int
}

// Add folds one outcome into the summary.
func (s *CommSummary) Add(o CommOutcome) {
	s.Combinations++
	switch o {
	case CommBlocked:
		s.Blocked++
	case CommNoOperations:
		s.NoOperations++
	case CommFault:
		s.Faults++
	case CommEchoMismatch:
		s.Mismatches++
	case CommOK:
		s.Succeeded++
	}
}

// CommResult is the outcome of the communication extension across
// servers.
type CommResult struct {
	Servers     map[string]*CommSummary
	ServerOrder []string
	// Clients breaks the outcomes down per client framework across
	// all servers, attributing the blocked and silent-failure
	// combinations to the tools that caused them.
	Clients     map[string]*CommSummary
	ClientOrder []string
}

// Totals sums all server summaries.
func (r *CommResult) Totals() CommSummary {
	var t CommSummary
	t.Server = "total"
	for _, name := range r.ServerOrder {
		s := r.Servers[name]
		t.Combinations += s.Combinations
		t.Blocked += s.Blocked
		t.NoOperations += s.NoOperations
		t.Faults += s.Faults
		t.Mismatches += s.Mismatches
		t.Succeeded += s.Succeeded
		t.Exchanges += s.Exchanges
		t.MessageViolations += s.MessageViolations
		t.PathCollisions += s.PathCollisions
	}
	return t
}

// RunCommunication executes the communication extension for every
// configured server framework.
func (r *Runner) RunCommunication(ctx context.Context) (*CommResult, error) {
	res := &CommResult{
		Servers: make(map[string]*CommSummary, len(r.servers)),
		Clients: make(map[string]*CommSummary, len(r.clients)),
	}
	for _, c := range r.clients {
		res.Clients[c.Name()] = &CommSummary{Server: c.Name()}
		res.ClientOrder = append(res.ClientOrder, c.Name())
	}
	for _, server := range r.servers {
		sum, err := r.runCommunicationServer(ctx, server, res.Clients)
		if err != nil {
			return nil, fmt.Errorf("communication on %s: %w", server.Name(), err)
		}
		res.Servers[server.Name()] = sum
		res.ServerOrder = append(res.ServerOrder, server.Name())
	}
	return res, nil
}

func (r *Runner) runCommunicationServer(ctx context.Context, server framework.ServerFramework,
	perClient map[string]*CommSummary) (*CommSummary, error) {
	published, _, err := r.Publish(ctx, server)
	if err != nil {
		return nil, err
	}

	host := transport.NewHost()
	// Every exchange flows through the message-level conformance
	// sniffer — the wire-side complement of the step-1 WS-I check.
	sniffer := transport.NewSniffer(host, r.checker).WithObs(r.obs)
	bridge := transport.NewLocalBridge(sniffer).WithObs(r.obs)

	endpoints, collisions, err := r.deployPublished(host, published)
	if err != nil {
		return nil, err
	}

	sum := &CommSummary{Server: server.Name(), PathCollisions: collisions}
	outcomes := make([]CommOutcome, len(published)*len(r.clients))

	dispatch(ctx, r.workers(), len(outcomes), func(_, idx int) {
		si, ci := idx/len(r.clients), idx%len(r.clients)
		svc, cli := &published[si], r.clients[ci]
		// The cell's trace joins sniffer captures (and any fault logs)
		// back to this (server, class, client) combination: the bridge
		// stamps it on the wire as X-Wsinterop-Trace.
		trace := obs.TraceID(server.Name(), svc.Class, cli.Name())
		start := r.met.now()
		outcomes[idx] = communicate(obs.WithTrace(ctx, trace), bridge, cli, svc,
			endpoints[svc.Class], r.cfg.Reference)
		r.met.observe(r.met.commSeconds, start)
		r.met.commCells.Inc()
		r.obs.Emit(obs.Event{
			Trace:        trace,
			Stage:        "communication",
			Server:       server.Name(),
			Client:       cli.Name(),
			Class:        svc.Class,
			Detail:       outcomes[idx].String(),
			ElapsedNanos: int64(r.met.since(start)),
		})
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for idx, o := range outcomes {
		sum.Add(o)
		if perClient != nil {
			perClient[r.clients[idx%len(r.clients)].Name()].Add(o)
		}
	}
	sum.Exchanges = sniffer.Exchanges()
	sum.MessageViolations = len(sniffer.Findings())
	return sum, nil
}

// deployPublished deploys every invocable service once, reusing the
// shared document analysis for the endpoint derivation (Config.Reference
// restores the per-deploy wsdl.Unmarshal the pre-cache runner did).
// Zero-operation documents are rejected by the runtime exactly as
// FromWSDL defines. A path collision between two services is resolved
// with a deterministic numeric suffix and counted, so the summary can
// surface it instead of silently dropping an endpoint.
func (r *Runner) deployPublished(host *transport.Host,
	published []PublishedService) (map[string]*transport.Endpoint, int, error) {
	endpoints := make(map[string]*transport.Endpoint, len(published)) // class → endpoint
	collisions := 0
	for i := range published {
		var doc *wsdl.Definitions
		if r.cfg.Reference {
			d, err := wsdl.Unmarshal(published[i].Doc)
			if err != nil {
				return nil, 0, fmt.Errorf("reparse %s: %w", published[i].Class, err)
			}
			doc = d
		} else {
			a, err := published[i].Analysis()
			if err != nil {
				return nil, 0, fmt.Errorf("analyze %s: %w", published[i].Class, err)
			}
			doc = a.Definitions()
		}
		ep, err := transport.FromWSDL(doc)
		if err != nil {
			continue // zero-operation services stay undeployed
		}
		if err := host.Deploy(ep); err != nil {
			collisions++
			base := ep.Path
			for n := 2; ; n++ {
				ep.Path = fmt.Sprintf("%s-%d", base, n)
				if host.Deploy(ep) == nil {
					break
				}
			}
		}
		endpoints[published[i].Class] = ep
	}
	return endpoints, collisions, nil
}

// buildEchoRequest builds the invocation payload for one operation
// from the endpoint's field specifications (lexically valid samples
// for scalar fields, a probe string for the parameter bean) so the
// Execution step's payload validation is genuinely exercised. It
// returns the request and the field whose echo proves the round trip.
func buildEchoRequest(ep *transport.Endpoint, op, class string) (*soap.Message, string) {
	probe := "probe:" + class
	fields := make(map[string]string, 2)
	probeField := ""
	for _, spec := range ep.Inputs[op] {
		fields[spec.Name] = transport.SampleValue(spec, probe)
		if probeField == "" && fields[spec.Name] == probe {
			probeField = spec.Name
		}
	}
	if len(fields) == 0 {
		fields["input"] = probe
		probeField = "input"
	}
	if probeField == "" {
		probeField = ep.Inputs[op][0].Name
	}
	return &soap.Message{Namespace: ep.Namespace, Local: op, Fields: fields}, probeField
}

// invocable runs steps 2–3 for one combination through the shared
// analysis (Config.Reference selects the byte path, matching the static
// campaign) and returns the operation to invoke. ok is false for
// blocked combinations; an empty op marks the silent no-operation
// stubs.
func invocable(client framework.ClientFramework, svc *PublishedService,
	ep *transport.Endpoint, reparse bool) (op string, ok bool) {
	gen := generationFor(client, svc, reparse)
	if gen.Failed() || gen.Unit == nil {
		return "", false
	}
	if diags := client.Verify(gen.Unit); len(artifact.Errors(diags)) > 0 {
		return "", false
	}
	port := gen.Unit.PortClass()
	if port == nil || len(port.Methods) == 0 || ep == nil {
		return "", true
	}
	return port.Methods[0].Name, true
}

// communicate executes steps 2–5 for one combination and classifies
// the result.
func communicate(ctx context.Context, bridge *transport.LocalBridge,
	client framework.ClientFramework, svc *PublishedService,
	ep *transport.Endpoint, reparse bool) CommOutcome {
	op, ok := invocable(client, svc, ep, reparse)
	if !ok {
		return CommBlocked
	}
	if op == "" {
		// Artifacts with nothing to invoke: the silent failures.
		return CommNoOperations
	}

	req, probeField := buildEchoRequest(ep, op, svc.Class)
	resp, err := bridge.Invoke(ctx, ep.Path, req)
	if err != nil {
		return CommFault
	}
	if echoed, _ := resp.Field(probeField); echoed != req.Fields[probeField] {
		return CommEchoMismatch
	}
	if resp.Local != op+"Response" {
		return CommEchoMismatch
	}
	return CommOK
}
