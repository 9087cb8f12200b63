package campaign

import (
	"context"
	"reflect"
	"testing"

	"wsinterop/internal/framework"
)

func TestCommunicationScaled(t *testing.T) {
	r := NewRunner(limitedConfig(150))
	res, err := r.RunCommunication(context.Background())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.ServerOrder) != 3 {
		t.Fatalf("servers = %v", res.ServerOrder)
	}
	totals := res.Totals()
	if totals.Combinations == 0 {
		t.Fatal("no combinations executed")
	}
	sum := totals.Blocked + totals.NoOperations + totals.Faults + totals.Mismatches + totals.Succeeded
	if sum != totals.Combinations {
		t.Errorf("outcome buckets (%d) do not partition combinations (%d)", sum, totals.Combinations)
	}
	if totals.Succeeded == 0 {
		t.Error("clean combinations should complete the round trip")
	}
	// The extension's headline property: nothing that passed the three
	// static steps fails at communication time (echo semantics hold),
	// so faults and mismatches are zero in this corpus.
	if totals.Faults != 0 || totals.Mismatches != 0 {
		t.Errorf("unexpected runtime failures: %+v", totals)
	}
}

func TestCommunicationSurfacesSilentFailures(t *testing.T) {
	// JBossWS publishes the two zero-operation WSDLs; Axis1, CXF and
	// JBossWS client tools generate method-less stubs silently. The
	// communication step is where those become visible.
	cfg := Config{
		Servers: []framework.ServerFramework{framework.NewJBossWSServer()},
		Clients: []framework.ClientFramework{
			framework.NewAxis1Client(),
			framework.NewCXFClient(),
			framework.NewJBossWSClient(),
		},
	}
	r := NewRunner(cfg)
	res, err := r.RunCommunication(context.Background())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	s := res.Servers["JBossWS CXF"]
	// Two zero-operation services × three silent clients.
	if s.NoOperations != 6 {
		t.Errorf("no-operation combinations = %d, want 6", s.NoOperations)
	}
}

func TestCommunicationBlockedMatchesStaticErrors(t *testing.T) {
	// On Metro with only the Metro client, exactly one combination is
	// blocked (the W3CEndpointReference generation error).
	cfg := Config{
		Servers: []framework.ServerFramework{framework.NewMetroServer()},
		Clients: []framework.ClientFramework{framework.NewMetroClient()},
	}
	res, err := NewRunner(cfg).RunCommunication(context.Background())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	s := res.Servers["Metro"]
	if s.Blocked != 1 {
		t.Errorf("blocked = %d, want 1", s.Blocked)
	}
	if s.Succeeded != s.Combinations-1 {
		t.Errorf("succeeded = %d, want %d", s.Succeeded, s.Combinations-1)
	}
}

func TestCommOutcomeString(t *testing.T) {
	for _, o := range []CommOutcome{CommBlocked, CommNoOperations, CommFault, CommEchoMismatch, CommOK} {
		if s := o.String(); s == "" || s[0] == 'C' {
			t.Errorf("outcome %d has no friendly name: %q", o, s)
		}
	}
}

// TestCommunicationReparseEquivalence checks that the optimized
// communication extension — shape-memoized publishing and the shared
// WSDL analysis — and the reference path (Config.Reference: per-class
// publishing, re-parsing the published bytes per step) classify every
// combination the same.
func TestCommunicationReparseEquivalence(t *testing.T) {
	run := func(reference bool) *CommResult {
		res, err := NewRunner(Config{Limit: 100, Workers: 4, Reference: reference}).RunCommunication(context.Background())
		if err != nil {
			t.Fatalf("run (reference=%v): %v", reference, err)
		}
		return res
	}
	optimized, reference := run(false), run(true)
	if !reflect.DeepEqual(optimized, reference) {
		t.Errorf("outcomes differ between the optimized and reference paths:\noptimized: %+v\nreference: %+v",
			optimized.Totals(), reference.Totals())
	}
}

func TestCommunicationCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewRunner(limitedConfig(300)).RunCommunication(ctx); err == nil {
		t.Error("cancelled context should abort")
	}
}

func TestCommunicationPerClientBreakdown(t *testing.T) {
	r := NewRunner(limitedConfig(150))
	res, err := r.RunCommunication(context.Background())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.ClientOrder) != 11 {
		t.Fatalf("client order = %v", res.ClientOrder)
	}
	// The per-client breakdown must re-sum to the per-server totals.
	totals := res.Totals()
	var blocked, noOps, succeeded int
	for _, name := range res.ClientOrder {
		c := res.Clients[name]
		blocked += c.Blocked
		noOps += c.NoOperations
		succeeded += c.Succeeded
	}
	if blocked != totals.Blocked || noOps != totals.NoOperations || succeeded != totals.Succeeded {
		t.Errorf("client sums %d/%d/%d != server totals %d/%d/%d",
			blocked, noOps, succeeded, totals.Blocked, totals.NoOperations, totals.Succeeded)
	}
	// The silent failures belong to the five tools that build
	// method-less clients on zero-operation WSDLs.
	for _, name := range []string{"Apache Axis1", "Apache CXF", "JBossWS CXF", "Zend Framework", "suds"} {
		if res.Clients[name].NoOperations == 0 {
			t.Errorf("%s should own silent no-operation combinations", name)
		}
	}
	for _, name := range []string{"Metro", ".NET C#"} {
		if res.Clients[name].NoOperations != 0 {
			t.Errorf("%s rejects zero-operation WSDLs at generation; no silent combos expected", name)
		}
	}
}
