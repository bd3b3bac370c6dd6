package scan

import (
	"context"
	"fmt"

	"fusedscan/internal/column"
	"fusedscan/internal/expr"
	"fusedscan/internal/govern"
	"fusedscan/internal/mach"
)

// Pruner decides whether a chunk of rows can be skipped entirely because
// the columns' zone maps prove no row in it satisfies every compare
// predicate of a conjunctive chain (NULL tests never prune: zone maps
// track value bounds, and a compare predicate already rejects NULL rows,
// so any compare conjunct proven empty empties the conjunction).
//
// A Pruner is built against the base (unsliced) chain and queried with
// absolute row ranges, so one Pruner serves every chunk of a scan. A nil
// Pruner never prunes.
type Pruner struct {
	preds []prunerPred
}

type prunerPred struct {
	zm     *column.ZoneMap
	op     expr.CmpOp
	needle uint64
}

// NewPruner builds (or fetches cached) zone maps at rowsPerZone
// granularity for every compare predicate of the chain.
func NewPruner(ch Chain, rowsPerZone int) *Pruner {
	pr := &Pruner{}
	for _, p := range ch {
		// Zone maps prove value-vs-literal bounds only: column-vs-column
		// compares and Bloom prefilters have no needle to test against.
		if p.Kind != expr.PredCompare || p.IsColCol() || p.IsBloom() {
			continue
		}
		pr.preds = append(pr.preds, prunerPred{
			zm:     p.Col.ZoneMap(rowsPerZone),
			op:     p.Op,
			needle: p.StoredBits(),
		})
	}
	return pr
}

// Prune reports whether rows [begin, end) provably contain no qualifying
// row: true when any compare predicate cannot match anywhere in the range.
func (pr *Pruner) Prune(begin, end int) bool {
	if pr == nil {
		return false
	}
	for _, p := range pr.preds {
		if !p.zm.MayMatch(begin, end, p.op, p.needle) {
			return true
		}
	}
	return false
}

// ChunkedStats reports how chunked execution went: how many chunks the
// table split into and how many were skipped by zone-map pruning.
type ChunkedStats struct {
	Chunks       int
	ChunksPruned int
	// BytesScanned totals the stored value bytes of the non-pruned
	// chunks' predicate columns (packed word spans, plain lanes) — what
	// the scan actually addressed after zone-map skipping.
	BytesScanned int64
}

// RunChunkedPruned is the chunk driver: it scans a chain chunk-at-a-time
// (the paper's footnote: the table "can, however, be horizontally
// partitioned into chunks or morsels"), building a kernel per chunk of
// chunkRows rows over zero-copy column views and rebasing its positions to
// table row ids. Between chunks it checks ctx (a cancelled scan stops
// within one chunk with ctx.Err()) and charges position-list growth to the
// context's govern.Accountant (ErrMemoryBudget when exceeded). Chunks the
// zone maps prove empty (a Pruner at chunkRows granularity) are skipped
// unread; pruning is a proof, so results equal a whole-table scan.
// ChunkedStats reports the skips. cpu may be nil for native kernels.
func RunChunkedPruned(ctx context.Context, build func(Chain) (Kernel, error), ch Chain, chunkRows int, cpu *mach.CPU, wantPositions bool) (Result, ChunkedStats, error) {
	var stats ChunkedStats
	if err := ch.Validate(); err != nil {
		return Result{}, stats, err
	}
	if chunkRows <= 0 {
		return Result{}, stats, fmt.Errorf("scan: chunkRows must be positive, got %d", chunkRows)
	}
	pruner := NewPruner(ch, chunkRows)
	acct := govern.AccountantFrom(ctx)
	n := ch.Rows()
	var total Result
	for begin := 0; begin < n; begin += chunkRows {
		if err := ctx.Err(); err != nil {
			return Result{}, stats, err
		}
		end := begin + chunkRows
		if end > n {
			end = n
		}
		stats.Chunks++
		if pruner.Prune(begin, end) {
			stats.ChunksPruned++
			continue
		}
		sub := ch.Slice(begin, end)
		stats.BytesScanned += sub.ScanBytes()
		kern, err := build(sub)
		if err != nil {
			return Result{}, stats, fmt.Errorf("scan: chunk [%d, %d): %w", begin, end, err)
		}
		res := kern.Run(cpu, wantPositions)
		total.Count += res.Count
		if wantPositions {
			if err := acct.Charge(int64(len(res.Positions)) * 4); err != nil {
				return Result{}, stats, err
			}
			for _, pos := range res.Positions {
				total.Positions = append(total.Positions, pos+uint32(begin))
			}
		}
	}
	return total, stats, nil
}
