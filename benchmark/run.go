package main

// Passes: closed-loop replay of the generated op cycles. Callers of this
// engine wait for their reply (internal/client is synchronous), and the box
// has two cores, so an open-loop generator would measure the scheduler. A
// pass replays whole cycles — every pass of a workload does identical work —
// until the requested seconds have elapsed.

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"fusedscan"
	"fusedscan/internal/server"
)

// executor sends one op to the system under test and returns its reply.
type executor interface {
	do(client int, o op, s *stmt) (*reply, error)
}

// engineExec drives the in-process surface: Query, Prepared.Execute and
// QueryWith{UsePlanCache}.
type engineExec struct{ e *env }

func (x engineExec) do(_ int, o op, s *stmt) (*reply, error) {
	var res *fusedscan.Result
	var err error
	switch o.mode {
	case modePrepared:
		res, err = x.e.prepared[s.shape].Execute(s.args...)
	case modeCached:
		res, err = x.e.eng.QueryWith(context.Background(), s.sql, fusedscan.QueryOptions{UsePlanCache: true})
	default:
		res, err = x.e.eng.Query(s.sql)
	}
	if err != nil {
		return nil, err
	}
	return &reply{count: res.Count, rows: res.Rows}, nil
}

// clientExec drives the HTTP surface through internal/client.
type clientExec struct{ e *env }

func (x clientExec) do(c int, o op, s *stmt) (*reply, error) {
	ctx := context.Background()
	cl, sess := x.e.clients[c], x.e.sessions[c]
	switch o.mode {
	case modePrepared:
		resp, err := cl.Execute(ctx, server.ExecuteRequest{Session: sess, Stmt: x.e.stmtIDs[c][s.shape], Args: s.args})
		if err != nil {
			return nil, err
		}
		return &reply{count: resp.Count, rows: resp.Rows}, nil
	case modeStream:
		d := newRowDigest()
		res, err := cl.Stream(ctx, server.QueryRequest{SQL: s.sql, Session: sess}, func(rows [][]string) error {
			for _, r := range rows {
				d.add(r)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		return &reply{count: res.Count, digest: d}, nil
	case modeDDL:
		target := fmt.Sprintf("%s (%s)", s.table, s.cols[0])
		for _, ddl := range []string{"CREATE INDEX ON " + target, "DROP INDEX ON " + target} {
			if _, err := cl.Query(ctx, server.QueryRequest{SQL: ddl, Session: sess}); err != nil {
				return nil, fmt.Errorf("%s: %w", ddl, err)
			}
		}
		return nil, nil
	}
	resp, err := cl.Query(ctx, server.QueryRequest{SQL: s.sql, Session: sess})
	if err != nil {
		return nil, err
	}
	return &reply{count: resp.Count, rows: resp.Rows}, nil
}

func (e *env) executor() executor {
	if e.srv != nil {
		return clientExec{e}
	}
	return engineExec{e}
}

// pass is the outcome of replaying cycles. lat[c] holds client c's per-op
// latencies in op order, cycle after cycle; a failed op is stored as -1.
type pass struct {
	cycles    int
	attempted int
	failed    int
	firstErr  error
	wallS     float64
	cpuS      float64
	lat       [][]int64
	gcPauseNs uint64
	allocB    uint64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runPass replays cycles through x until seconds have elapsed (at least
// one, at most maxCycles when that is positive). Clients run a cycle
// concurrently and meet at its end, so every cycle is the same work. Each
// reply is checked against the oracle; the check is outside the op's
// latency but inside the pass's wall and CPU time.
func runPass(x executor, ds *dataset, seconds float64, maxCycles int) *pass {
	p := &pass{lat: make([][]int64, len(ds.ops))}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	start := time.Now()
	var mu sync.Mutex
	for {
		var wg sync.WaitGroup
		for c := range ds.ops {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				lat := make([]int64, 0, len(ds.ops[c]))
				failed := 0
				var firstErr error
				for _, o := range ds.ops[c] {
					s := ds.stmts[o.stmt]
					t := time.Now()
					got, err := x.do(c, o, s)
					ns := time.Since(t).Nanoseconds()
					if err == nil && o.mode != modeDDL && !s.want.matches(got) {
						err = fmt.Errorf("wrong result for %q", s.sql)
					}
					if err != nil {
						ns = -1
						failed++
						if firstErr == nil {
							firstErr = err
						}
					}
					lat = append(lat, ns)
				}
				mu.Lock()
				p.lat[c] = append(p.lat[c], lat...)
				p.attempted += len(lat)
				p.failed += failed
				if p.firstErr == nil {
					p.firstErr = firstErr
				}
				mu.Unlock()
			}(c)
		}
		wg.Wait()
		p.cycles++
		if time.Since(start).Seconds() >= seconds || p.cycles == maxCycles {
			break
		}
	}
	p.wallS = since(start)
	p.cpuS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	p.gcPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	p.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	return p
}

// latencies returns the pass's successful op latencies, ascending,
// optionally only those whose op satisfies keep.
func (p *pass) latencies(ds *dataset, keep func(o op, s *stmt) bool) []int64 {
	var out []int64
	for c, lat := range p.lat {
		n := len(ds.ops[c])
		for i, ns := range lat {
			o := ds.ops[c][i%n]
			if ns >= 0 && (keep == nil || keep(o, ds.stmts[o.stmt])) {
				out = append(out, ns)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// perOpMedian returns, for client 0, each op's median latency across the
// pass's cycles (-1 if it never succeeded) — the pairing key between the
// untraced pass and the staged walk.
func (p *pass) perOpMedian(ds *dataset) []float64 {
	n := len(ds.ops[0])
	out := make([]float64, n)
	for i := range out {
		var v []int64
		for j := i; j < len(p.lat[0]); j += n {
			if p.lat[0][j] >= 0 {
				v = append(v, p.lat[0][j])
			}
		}
		out[i] = -1
		if len(v) > 0 {
			sort.Slice(v, func(a, b int) bool { return v[a] < v[b] })
			out[i] = float64(quantile(v, 0.5))
		}
	}
	return out
}

// quantile reads the q-quantile of an ascending slice (0 when empty).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}
