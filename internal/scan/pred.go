// Package scan implements the table-scan kernels the paper evaluates:
//
//   - SISD: the branchy, short-circuiting tuple-at-a-time loop from
//     Section II;
//   - AutoVec: the same logic as the compiler's auto-vectorization would
//     emit — branch-free, block-at-a-time, evaluating every predicate
//     column in full;
//   - Fused: the paper's contribution (Section III), a consecutive-scan
//     kernel that keeps comparison masks and position lists in vector
//     registers, using AVX-512 compress / permutex2var / gather — at 128,
//     256 or 512-bit register width, in the AVX-512 dialect or the AVX2
//     backport dialect;
//   - Strided: the Section II motivation experiment that skips values
//     within each cache line to expose the bandwidth ceiling (Figure 2).
//
// Each kernel executes the real algorithm against real column bytes and
// reports its instructions, branches and memory accesses to a mach.CPU,
// from which the simulated runtime and the hardware-counter values of the
// paper's figures are derived. Functional results (match counts and
// position lists) are exact and verified against Reference.
package scan

import (
	"fmt"

	"fusedscan/internal/column"
	"fusedscan/internal/expr"
)

// Pred is one predicate of a conjunctive chain: a value comparison
// (column OP literal; the zero Kind), a column-vs-column comparison
// (column OP column2, row-aligned — the residual-join-predicate family),
// a Bloom-prefilter membership test (predicate transfer from a hash
// join's build side), or a NULL test on the column's validity bitmap.
type Pred struct {
	Col   *column.Column
	Kind  expr.PredKind
	Op    expr.CmpOp
	Value expr.Value

	// Col2, when non-nil, makes the predicate "Col Op Col2" evaluated
	// row-aligned over two equal-length, equal-type columns; Value is
	// ignored. Only meaningful with Kind == PredCompare.
	Col2 *column.Column

	// Bloom, when non-nil, makes the predicate a membership prefilter:
	// the row passes when the filter may contain Col's stored bits (and
	// the row is not NULL — a NULL join key matches nothing). Op and
	// Value are ignored. Only meaningful with Kind == PredCompare.
	Bloom *Bloom

	// Stats, when non-nil on a Bloom predicate, receives check/pass
	// counts from every kernel that evaluates the prefilter.
	Stats *BloomStats
}

// IsColCol reports whether the predicate compares two columns.
func (p Pred) IsColCol() bool { return p.Col2 != nil }

// IsBloom reports whether the predicate is a Bloom prefilter.
func (p Pred) IsBloom() bool { return p.Bloom != nil }

// StoredBits returns the literal's raw pattern as stored in a column lane
// (what the broadcast needle register holds). Column-vs-column and Bloom
// predicates have no needle; theirs is zero.
func (p Pred) StoredBits() uint64 {
	if p.IsColCol() || p.IsBloom() {
		return 0
	}
	return column.StoredBits(p.Value)
}

// Matches evaluates the predicate for row i (the scalar semantics every
// kernel must agree with).
func (p Pred) Matches(i int, storedNeedle uint64) bool {
	switch {
	case p.Kind == expr.PredIsNull:
		return p.Col.Null(i)
	case p.Kind == expr.PredIsNotNull:
		return !p.Col.Null(i)
	case p.IsBloom():
		return !p.Col.Null(i) && p.Bloom.Test(p.Col.Raw(i))
	case p.IsColCol():
		return !p.Col.Null(i) && !p.Col2.Null(i) &&
			expr.CompareBits(p.Col.Type(), p.Op, p.Col.Raw(i), p.Col2.Raw(i))
	default:
		return !p.Col.Null(i) &&
			expr.CompareBits(p.Col.Type(), p.Op, p.Col.Raw(i), storedNeedle)
	}
}

// BlockMask evaluates the predicate's non-compare part for a block of cnt
// rows starting at row b: the validity polarity for NULL tests, all-ones
// for comparisons (which the kernels AND with their SIMD compare mask and
// the validity mask).
func (p Pred) BlockMask(b, cnt int) uint64 {
	switch p.Kind {
	case expr.PredIsNull:
		return ^p.Col.ValidMask(b, cnt) & firstN(cnt)
	case expr.PredIsNotNull:
		return p.Col.ValidMask(b, cnt)
	default:
		return firstN(cnt)
	}
}

func (p Pred) String() string {
	switch {
	case p.Kind == expr.PredIsNull:
		return fmt.Sprintf("%s IS NULL", p.Col.Name())
	case p.Kind == expr.PredIsNotNull:
		return fmt.Sprintf("%s IS NOT NULL", p.Col.Name())
	case p.IsBloom():
		return fmt.Sprintf("%s IN bloom(%d keys)", p.Col.Name(), p.Bloom.Keys())
	case p.IsColCol():
		return fmt.Sprintf("%s %s %s", p.Col.Name(), p.Op, p.Col2.Name())
	default:
		return fmt.Sprintf("%s %s %s", p.Col.Name(), p.Op, p.Value)
	}
}

// Chain is a conjunction of predicates over equal-length columns — the
// consecutive table scans the fused operator replaces.
type Chain []Pred

// Validate checks the chain is non-empty, type-consistent and over columns
// of one length.
func (ch Chain) Validate() error {
	if len(ch) == 0 {
		return fmt.Errorf("scan: empty predicate chain")
	}
	n := ch[0].Col.Len()
	for i, p := range ch {
		if p.Col == nil {
			return fmt.Errorf("scan: predicate %d has no column", i)
		}
		if p.IsBloom() {
			if p.Kind != expr.PredCompare || p.Col2 != nil {
				return fmt.Errorf("scan: predicate %d mixes a Bloom prefilter with another predicate form", i)
			}
		} else if p.IsColCol() {
			if p.Kind != expr.PredCompare {
				return fmt.Errorf("scan: predicate %d mixes a column-vs-column compare with a NULL test", i)
			}
			if !p.Op.Valid() {
				return fmt.Errorf("scan: predicate %d has invalid operator", i)
			}
			if p.Col2.Type() != p.Col.Type() {
				return fmt.Errorf("scan: predicate %d compares %s column %q against %s column %q",
					i, p.Col.Type(), p.Col.Name(), p.Col2.Type(), p.Col2.Name())
			}
			if p.Col2.Len() != n {
				return fmt.Errorf("scan: column %q has %d rows, chain expects %d",
					p.Col2.Name(), p.Col2.Len(), n)
			}
		} else if p.Kind == expr.PredCompare {
			if !p.Op.Valid() {
				return fmt.Errorf("scan: predicate %d has invalid operator", i)
			}
			if p.Value.Type != p.Col.Type() {
				return fmt.Errorf("scan: predicate %d compares %s literal against %s column %q",
					i, p.Value.Type, p.Col.Type(), p.Col.Name())
			}
		}
		if p.Col.Len() != n {
			return fmt.Errorf("scan: column %q has %d rows, chain expects %d",
				p.Col.Name(), p.Col.Len(), n)
		}
	}
	return nil
}

// HasJoinForms reports whether the chain contains column-vs-column or
// Bloom-prefilter predicates. The SISD, Fused and Native kernels evaluate
// them; the block-at-a-time baselines (AutoVec, BlockMaterialized,
// Strided) predate the family and reject such chains at construction.
func (ch Chain) HasJoinForms() bool {
	for _, p := range ch {
		if p.IsColCol() || p.IsBloom() {
			return true
		}
	}
	return false
}

// Slice restricts the chain to rows [begin, end): every column (including
// Col2) is sliced; Bloom filters and BloomStats are shared with the parent
// chain, so per-chunk and per-morsel sub-scans accumulate into one counter
// set. Chunked executors must use this instead of copying Pred fields by
// hand, or the join-predicate forms are silently dropped.
func (ch Chain) Slice(begin, end int) Chain {
	sub := make(Chain, len(ch))
	for i, p := range ch {
		sp := Pred{Col: p.Col.Slice(begin, end), Kind: p.Kind, Op: p.Op, Value: p.Value,
			Bloom: p.Bloom, Stats: p.Stats}
		if p.Col2 != nil {
			sp.Col2 = p.Col2.Slice(begin, end)
		}
		sub[i] = sp
	}
	return sub
}

// Rows returns the number of rows the chain scans.
func (ch Chain) Rows() int {
	if len(ch) == 0 {
		return 0
	}
	return ch[0].Col.Len()
}

// Result is a scan outcome: the number of qualifying rows and, if
// requested, their row ids in ascending order.
type Result struct {
	Count     int
	Positions []uint32
}

// Reference evaluates the chain row-at-a-time in plain Go with no machine
// model. It is the correctness oracle for every kernel.
func Reference(ch Chain, wantPositions bool) Result {
	n := ch.Rows()
	needles := make([]uint64, len(ch))
	for i, p := range ch {
		needles[i] = p.StoredBits()
	}
	var res Result
	for i := 0; i < n; i++ {
		ok := true
		for j, p := range ch {
			if !p.Matches(i, needles[j]) {
				ok = false
				break
			}
		}
		if ok {
			res.Count++
			if wantPositions {
				res.Positions = append(res.Positions, uint32(i))
			}
		}
	}
	return res
}
