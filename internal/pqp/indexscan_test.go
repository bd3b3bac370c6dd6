package pqp

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"fusedscan/internal/column"
	"fusedscan/internal/govern"
	"fusedscan/internal/index"
	"fusedscan/internal/jit"
	"fusedscan/internal/lqp"
	"fusedscan/internal/mach"
	"fusedscan/internal/sqlparse"
)

// testIndexes is an lqp.IndexCatalog over indexes keyed "table.col".
type testIndexes map[string]*index.Index

func (c testIndexes) LookupIndex(table, col string) *index.Index { return c[table+"."+col] }

// TestIndexCandidatesOverBudget runs a forced index range whose candidate
// list is one position larger than the query's memory budget, then one
// that fits it exactly: the first fails with *MemoryBudgetError, the second
// counts every candidate, and neither leaves a byte charged once the plan
// has run.
func TestIndexCandidatesOverBudget(t *testing.T) {
	const n, below = 3 << 16, 100000
	space := mach.NewAddrSpace()
	ks := make([]int32, n)
	for i, v := range rand.New(rand.NewSource(50)).Perm(n) {
		ks[i] = int32(v)
	}
	tbl := column.NewTable(space, "t")
	kc := column.FromInt32s(space, "k", ks)
	tbl.MustAddColumn(kc)
	ix, err := index.Build("t", kc, nil)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := sqlparse.Parse("SELECT /*+ INDEX(t k) */ COUNT(*) FROM t WHERE k < 100000")
	if err != nil {
		t.Fatal(err)
	}
	cands := int64(below * bytesPerPosition)
	for _, budget := range []int64{cands - 1, cands} {
		lp, err := lqp.Build(sel, testCatalog{"t": tbl})
		if err != nil {
			t.Fatal(err)
		}
		opt := lqp.NewOptimizer()
		opt.SetIndexCatalog(testIndexes{"t.k": ix})
		opt.Optimize(lp)
		pp, err := Translate(lp, jit.NewCompiler(), nativeOptions())
		if err != nil {
			t.Fatal(err)
		}
		acct := govern.NewAccountant(budget)
		res, err := pp.Run(govern.WithAccountant(context.Background(), acct), nil)
		var mbe *govern.MemoryBudgetError
		switch {
		case budget < cands && (!errors.As(err, &mbe) || mbe.RequestedBytes != cands):
			t.Errorf("budget %d B: err = %v, want *MemoryBudgetError for %d B", budget, err, cands)
		case budget == cands && (err != nil || res.Count != below):
			t.Errorf("budget %d B: count %d, err %v; want %d", budget, res.Count, err, below)
		}
		if used := acct.Used(); used != 0 {
			t.Errorf("budget %d B: %d B still charged after the run", budget, used)
		}
		if st := pp.OperatorStats(); st[len(st)-1].IndexProbes != 1 {
			t.Errorf("budget %d B: plan did not probe the index: %v", budget, st)
		}
	}
}
