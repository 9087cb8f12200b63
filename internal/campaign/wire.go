package campaign

// The wire-matrix engine (DESIGN.md §14.5) behind the two campaign
// modes that carry published services onto the wire: -versions
// (versions.go) and -faults (robustness.go). Every (published service
// × client) pair is exchanged once per column of the mode's catalog —
// version scenarios, or injected faults — and each exchange is
// classified.
//
// A mode is data (wireMode): a name, a column catalog, the handler it
// wraps around each server's host, and the per-column exchange that
// classifies a cell. The engine owns the rest: publish and deploy, the
// pre-indexed outcome slots fed through dispatch, the per-service
// completion counter that journals a service cell, resume replay into
// the slots, the serial fixed-order fold (the only place counters
// move), and the per-(shard, server) completion sentinel.
//
// Determinism: all wire mutation is steered by per-request directive
// headers, so one handler serves any number of concurrent cells; cells
// land in pre-indexed slots; and the fold runs serially in fixed
// (server, service, client, column) order. Worker count, scheduling,
// resume and merge therefore never change a cell or a counter: a
// replayed cell fills exactly the slots its exchange would have.

import (
	"context"
	"fmt"
	"path/filepath"
	"sync/atomic"

	"wsinterop/internal/framework"
	"wsinterop/internal/journal"
	"wsinterop/internal/obs"
	"wsinterop/internal/transport"
)

// wireOutcome is a wire mode's cell classification. Its String form is
// the journal encoding.
type wireOutcome interface {
	~int
	String() string
}

// wireCounts is a wire mode's aggregate over one matrix slice.
type wireCounts[O wireOutcome, C any] interface {
	*C
	Add(O)
}

// wireExchange classifies column col of one (service × client) pair
// whose static steps yielded the operation op to invoke.
type wireExchange[O wireOutcome] func(ctx context.Context, client framework.ClientFramework,
	svc *PublishedService, ep *transport.Endpoint, op string, col int) O

// wireMode describes one wire-matrix campaign mode.
type wireMode[O wireOutcome] struct {
	// name is the mode's store subdirectory under Config.Checkpoint, its
	// journal record mode and the namespace of its journal keys.
	name string
	// columns is the column catalog in its fixed order.
	columns []string
	// outcomes lists every outcome, for decoding journal rows.
	outcomes []O
	// skipped fills every column of a pair the static steps blocked or
	// that exposes nothing to invoke; no exchange happens.
	skipped O
	// pinned reports that checkpointFingerprint already covers the
	// columns. Any other catalog extends the store fingerprint.
	pinned bool
	// stage wraps one server's freshly built host, before deployment, and
	// returns the exchange every cell of the stage runs.
	stage func(server string, host *transport.Host) wireExchange[O]
	// counters are the mode's outcome counters, indexed by outcome.
	counters []*obs.Counter
}

// wireMatrix is the engine's fold of a mode across the roster.
type wireMatrix[C any] struct {
	servers     map[string]map[string]*C // server → column → counts
	serverOrder []string
	clients     map[string]*C
	clientOrder []string
	collisions  int
}

// runWire runs mode m across every configured server. With merge set it
// is the shard merge coordinator: the store is the union of the mode's
// stores under dirs, every cell replays from it, and a missing cell is
// refused, never exchanged.
func runWire[O wireOutcome, C any, PC wireCounts[O, C]](ctx context.Context, r *Runner,
	m *wireMode[O], merge bool, dirs []string) (*wireMatrix[C], error) {
	st, err := m.store(r, merge, dirs)
	if err != nil {
		return nil, err
	}
	mat := &wireMatrix[C]{
		servers: make(map[string]map[string]*C, len(r.servers)),
		clients: make(map[string]*C, len(r.clients)),
	}
	for _, c := range r.clients {
		mat.clients[c.Name()] = new(C)
		mat.clientOrder = append(mat.clientOrder, c.Name())
	}
	nc, ncol := len(r.clients), len(m.columns)
	for _, server := range r.servers {
		outcomes, collisions, err := m.exchangeServer(ctx, r, st, merge, server)
		if err != nil {
			// Close flushes, so every cell completed before the
			// interruption is durable for the resume.
			_ = st.close()
			return nil, fmt.Errorf("%s on %s: %w", m.name, server.Name(), err)
		}
		// Serial fixed-order fold: counters land here, inside the
		// determinism contract, never in workers.
		perColumn := make(map[string]*C, ncol)
		for _, col := range m.columns {
			perColumn[col] = new(C)
		}
		for idx, o := range outcomes {
			PC(perColumn[m.columns[idx%ncol]]).Add(o)
			PC(mat.clients[mat.clientOrder[(idx/ncol)%nc]]).Add(o)
			m.counters[o].Inc()
		}
		mat.servers[server.Name()] = perColumn
		mat.serverOrder = append(mat.serverOrder, server.Name())
		mat.collisions += collisions
	}
	if err := st.close(); err != nil {
		return nil, err
	}
	// The durable-point probes fire from the writer goroutine, which the
	// workers can outrun; a cancellation they trigger during the final
	// flush still wins, as in Run.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return mat, nil
}

// exchangeServer runs one server stage into outcome slots indexed
// (service, client, column) and returns them with the stage's deploy
// path-collision count.
func (m *wireMode[O]) exchangeServer(ctx context.Context, r *Runner, st *checkpointState,
	merge bool, server framework.ServerFramework) ([]O, int, error) {
	name := server.Name()
	published, _, err := r.Publish(ctx, server)
	if err != nil {
		return nil, 0, err
	}
	host := transport.NewHost()
	exchange := m.stage(name, host)
	endpoints, collisions, err := r.deployPublished(host, published)
	if err != nil {
		return nil, 0, err
	}

	nc, ncol := len(r.clients), len(m.columns)
	row := nc * ncol // one service cell's slots
	outcomes := make([]O, len(published)*row)

	// Resume and merge: replay journaled service cells into their slots;
	// the rest is the worker feed.
	pending := make([]int, 0, len(published))
	for si := range published {
		rec, ok := st.record(m.cellTrace(name, published[si].Class))
		if !ok {
			if merge {
				return nil, 0, fmt.Errorf("campaign: shard journals are incomplete: no %s cell for %s on %s — resume the owning shard to completion first",
					m.name, published[si].Class, name)
			}
			pending = append(pending, si)
			continue
		}
		if err := m.replay(r, &rec, outcomes[si*row:(si+1)*row]); err != nil {
			return nil, 0, err
		}
		st.resumed.Inc()
	}

	// remaining counts each service's outstanding client rows; the
	// worker that completes the last one journals the cell.
	var remaining []atomic.Int32
	if st != nil {
		remaining = make([]atomic.Int32, len(published))
		for si := range remaining {
			remaining[si].Store(int32(nc))
		}
	}
	// A pair a worker has taken runs to completion: cancellation only
	// stops the feed. The exchanges see ctx's values but not its
	// cancellation, or a retry cut short would journal a wrong outcome.
	cellCtx := context.WithoutCancel(ctx)
	dispatch(ctx, r.workers(), len(pending)*nc, func(_, it int) {
		si, ci := pending[it/nc], it%nc
		svc, client := &published[si], r.clients[ci]
		ep := endpoints[svc.Class]
		cells := outcomes[si*row+ci*ncol : si*row+(ci+1)*ncol]
		op, ok := invocable(client, svc, ep, r.cfg.Reference)
		for col := range cells {
			if !ok || op == "" {
				cells[col] = m.skipped
				continue
			}
			cells[col] = exchange(cellCtx, client, svc, ep, op, col)
		}
		if remaining != nil && remaining[si].Add(-1) == 0 {
			// Every client row of the service is in its slots (the atomic
			// counter orders their writes before this read).
			st.append(m.cellRecord(r, name, svc.Class, outcomes[si*row:(si+1)*row]))
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	// The stage completed: its sentinel is what a merge checks each
	// shard's completeness by, before it looks at single cells.
	sentinel := m.sentinelTrace(r.cfg.Shard, name)
	if _, done := st.record(sentinel); !done {
		st.append(journal.Record{Trace: sentinel, Server: name, Mode: m.name + "-complete"})
	}
	return outcomes, collisions, nil
}

// cellTrace is the journal key of one service cell.
func (m *wireMode[O]) cellTrace(server, class string) string {
	return obs.TraceID(m.name, server, class)
}

// sentinelTrace is the journal key of one shard's completion sentinel
// for a server stage. It embeds the shard coordinates so sentinels from
// different shards never collide in a merge union.
func (m *wireMode[O]) sentinelTrace(shard ShardSpec, server string) string {
	return obs.TraceID(m.name+"-complete", shard.String(), server)
}

// store opens the mode's journal store: <Checkpoint>/<name> for a run
// (nil without a checkpoint), or for a merge the union of the stores
// under dirs, once every shard proves each server stage complete.
func (m *wireMode[O]) store(r *Runner, merge bool, dirs []string) (*checkpointState, error) {
	fp := r.checkpointFingerprint()
	if !m.pinned {
		parts := []string{fp}
		for _, col := range m.columns {
			parts = append(parts, m.name+"="+col)
		}
		fp = obs.TraceID(parts...)
	}
	if !merge {
		return r.openStore(m.name, fp, nil)
	}
	metas, loaded, err := r.loadShardJournals(dirs, m.name, fp)
	if err != nil {
		return nil, err
	}
	// A shard appends a stage's sentinel only after every cell of the
	// stage, so a missing one names the shard to resume.
	for i, meta := range metas {
		spec := ShardSpec{}
		if sh := meta.Shard; sh != nil {
			spec = ShardSpec{Index: sh.Index, Count: sh.Count}
		}
		for _, server := range r.servers {
			if _, ok := loaded[m.sentinelTrace(spec, server.Name())]; !ok {
				return nil, fmt.Errorf("campaign: %s holds no completed %s stage — resume the shard to completion first",
					filepath.Join(dirs[i], m.name), server.Name())
			}
		}
	}
	return r.newStore(loaded), nil
}

// cellRecord encodes one fully exchanged service cell: the outcome row
// of every client, in roster and column order.
func (m *wireMode[O]) cellRecord(r *Runner, server, class string, cells []O) journal.Record {
	ncol := len(m.columns)
	rows := make([]journal.OutcomeRow, len(r.clients))
	for ci := range rows {
		outs := make([]string, ncol)
		for col := range outs {
			outs[col] = cells[ci*ncol+col].String()
		}
		rows[ci] = journal.OutcomeRow{Client: r.clients[ci].Name(), Outcomes: outs}
	}
	return journal.Record{
		Trace:     m.cellTrace(server, class),
		Server:    server,
		Class:     class,
		Mode:      m.name,
		Published: true,
		Rows:      rows,
	}
}

// replay decodes one journaled service cell into its outcome slots,
// validating it against the roster and the column catalog (both are
// fingerprint-pinned, so a mismatch means a corrupted store, not a
// configuration drift).
func (m *wireMode[O]) replay(r *Runner, rec *journal.Record, cells []O) error {
	if rec.Mode != m.name {
		return fmt.Errorf("campaign: journal record %s: mode %q is not a %s cell", rec.Trace, rec.Mode, m.name)
	}
	if len(rec.Rows) != len(r.clients) {
		return fmt.Errorf("campaign: journal record %s: %d client rows, roster has %d",
			rec.Trace, len(rec.Rows), len(r.clients))
	}
	ncol := len(m.columns)
	for ci, row := range rec.Rows {
		if row.Client != r.clients[ci].Name() {
			return fmt.Errorf("campaign: journal record %s: row %d is for client %q, roster has %q",
				rec.Trace, ci, row.Client, r.clients[ci].Name())
		}
		if len(row.Outcomes) != ncol {
			return fmt.Errorf("campaign: journal record %s: %d outcomes for client %q, catalog has %d columns",
				rec.Trace, len(row.Outcomes), row.Client, ncol)
		}
		for col, s := range row.Outcomes {
			o, err := parseOutcome(m.outcomes, s)
			if err != nil {
				return fmt.Errorf("campaign: journal record %s: %w", rec.Trace, err)
			}
			cells[ci*ncol+col] = o
		}
	}
	return nil
}

// parseOutcome inverts String for journal replay.
func parseOutcome[O wireOutcome](all []O, s string) (O, error) {
	for _, o := range all {
		if o.String() == s {
			return o, nil
		}
	}
	return 0, fmt.Errorf("unknown outcome %q", s)
}
