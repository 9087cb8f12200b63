package campaign

import (
	"context"
	"reflect"
	"testing"

	"wsinterop/internal/faultinject"
	"wsinterop/internal/soap"
)

// robustLimit shrinks the corpus in -short mode (the -race CI step)
// while keeping every test running — the fault matrix must stay
// exercised under the race detector.
func robustLimit(full int) int {
	if testing.Short() {
		return full / 3
	}
	return full
}

func TestRobustnessScaled(t *testing.T) {
	res, err := NewRunner(limitedConfig(robustLimit(80))).RunRobustness(context.Background())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.ServerOrder) != 3 {
		t.Fatalf("servers = %v", res.ServerOrder)
	}
	if len(res.Faults) != len(faultinject.Catalog()) {
		t.Fatalf("fault rows = %v", res.Faults)
	}

	totals := res.Totals()
	if totals.Cells == 0 {
		t.Fatal("no cells executed")
	}
	sum := totals.Skipped + totals.Detected + totals.Masked + totals.WrongSuccess + totals.Recovered
	if sum != totals.Cells {
		t.Errorf("outcome buckets (%d) do not partition cells (%d)", sum, totals.Cells)
	}

	// The headline acceptance property: after the status-blind fix, no
	// wire-signaled failure is ever reported as success.
	if totals.WrongSuccess != 0 {
		t.Errorf("wrong-success cells = %d, want 0; totals = %+v", totals.WrongSuccess, totals)
	}
	if totals.Detected == 0 {
		t.Error("hard faults should be detected")
	}
	if totals.Recovered == 0 {
		t.Error("the transient abort-once fault should be recovered by retry")
	}
	if totals.Masked == 0 {
		t.Error("the benign faults (wrong content type, delay) should be masked")
	}

	// Per-fault expectations on this corpus.
	ft := res.FaultTotals()
	exchanged := func(c *RobustCounts) int { return c.Cells - c.Skipped }
	for _, name := range []string{"truncate", "html-error", "status-500", "empty-body", "oversize", "dup-child", "rename-child", "abort"} {
		c := ft[name]
		if c.Detected != exchanged(c) {
			t.Errorf("%s: detected = %d, want %d (every exchanged cell)", name, c.Detected, exchanged(c))
		}
	}
	for _, name := range []string{"wrong-content-type", "delay"} {
		c := ft[name]
		if c.Masked != exchanged(c) {
			t.Errorf("%s: masked = %d, want %d (benign fault)", name, c.Masked, exchanged(c))
		}
	}
	if c := ft["abort-once"]; c.Recovered != exchanged(c) {
		t.Errorf("abort-once: recovered = %d, want %d", c.Recovered, exchanged(c))
	}

	// The per-client breakdown re-sums to the matrix totals.
	var clientCells int
	for _, name := range res.ClientOrder {
		clientCells += res.Clients[name].Cells
	}
	if clientCells != totals.Cells {
		t.Errorf("client cells (%d) != matrix cells (%d)", clientCells, totals.Cells)
	}
}

// TestRobustnessDeterministicAcrossWorkers is the acceptance criterion
// for the matrix: scheduling must never change a cell.
func TestRobustnessDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *RobustResult {
		res, err := NewRunner(Config{Limit: robustLimit(60), Workers: workers}).RunRobustness(context.Background())
		if err != nil {
			t.Fatalf("run (workers=%d): %v", workers, err)
		}
		return res
	}
	serial, parallel := run(1), run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("matrix differs between 1 and 8 workers:\nserial:   %+v\nparallel: %+v",
			serial.Totals(), parallel.Totals())
	}
}

// TestRobustnessReparseEquivalence checks the optimized path against
// the reference: memoized publishing and the shared WSDL analysis, or
// per-class publishing and re-parsing bytes per cell, must produce the
// same matrix.
func TestRobustnessReparseEquivalence(t *testing.T) {
	run := func(reference bool) *RobustResult {
		res, err := NewRunner(Config{Limit: robustLimit(60), Workers: 4, Reference: reference}).RunRobustness(context.Background())
		if err != nil {
			t.Fatalf("run (reference=%v): %v", reference, err)
		}
		return res
	}
	if optimized, reference := run(false), run(true); !reflect.DeepEqual(optimized, reference) {
		t.Errorf("matrix differs between the optimized and reference paths:\noptimized: %+v\nreference: %+v",
			optimized.Totals(), reference.Totals())
	}
}

func TestRobustnessCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewRunner(limitedConfig(300)).RunRobustness(ctx); err == nil {
		t.Error("cancelled context should abort")
	}
}

// TestRobustOutcomeString: the String form is the journal encoding,
// so it must be friendly and parse back exactly.
func TestRobustOutcomeString(t *testing.T) {
	for _, o := range robustOutcomes {
		s := o.String()
		if s == "" || s[0] == 'R' {
			t.Errorf("outcome %d has no friendly name: %q", o, s)
		}
		if back, err := parseOutcome(robustOutcomes, s); err != nil || back != o {
			t.Errorf("parse(%q) = %v, %v; want %v", s, back, err, o)
		}
	}
}

// TestClassifyRobustWrongSuccessGuards exercises the two wrong-success
// triggers directly: success against a MustError fault, and a
// well-shaped echo whose probe value was corrupted.
func TestClassifyRobustWrongSuccessGuards(t *testing.T) {
	shape := func(probe string) *robustExchange {
		return &robustExchange{
			resp:      &soap.Message{Local: "echoResponse", Fields: map[string]string{"input": probe}},
			wantLocal: "echoResponse", sent: map[string]string{"input": "ping"},
			probeField: "input",
		}
	}
	mustErr := faultinject.Fault{Name: "status-500", MustError: true}
	if got := classifyRobust(mustErr, 1, shape("ping"), nil); got != RobustWrongSuccess {
		t.Errorf("success against MustError fault = %v, want wrong-success", got)
	}
	benign := faultinject.Fault{Name: "dup-value", MustError: false}
	if got := classifyRobust(benign, 1, shape("pingx"), nil); got != RobustWrongSuccess {
		t.Errorf("corrupted probe echo = %v, want wrong-success", got)
	}
	if got := classifyRobust(benign, 1, shape("ping"), nil); got != RobustMasked {
		t.Errorf("clean benign exchange = %v, want masked", got)
	}
	if got := classifyRobust(benign, 2, shape("ping"), nil); got != RobustRecovered {
		t.Errorf("multi-attempt success = %v, want recovered", got)
	}
}
