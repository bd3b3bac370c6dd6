package pqp

import (
	"math"
	"strconv"

	"fusedscan/internal/expr"
)

// batchRenderer renders column vectors as rows of strings, keeping its
// scratch buffers from batch to batch. Each core that runs projection
// fragments has its own (DESIGN §9).
type batchRenderer struct {
	buf  []byte
	ends []int // column-major: cell (i, c) ends at ends[c*n+i]
}

// render renders one batch's vectors. Each column is formatted in one pass
// into one shared buffer, switching on its type once, and every cell is a
// substring of one string. A NULL cell renders as "NULL", every other cell
// exactly as its expr.Value.String(). A batch without rows renders as nil.
func (r *batchRenderer) render(cols []Vec) [][]string {
	w := len(cols)
	if w == 0 || len(cols[0].Bits) == 0 {
		return nil
	}
	n := len(cols[0].Bits)
	if cap(r.ends) < n*w {
		r.ends = make([]int, n*w)
	}
	ends, buf := r.ends[:n*w], r.buf[:0]
	for c := range cols {
		buf = appendColumn(buf, &cols[c], ends[c*n:(c+1)*n])
	}
	r.buf = buf
	text := string(buf)
	cells, rows := make([]string, n*w), make([][]string, n)
	start := 0
	for c := range w {
		for i := range n {
			cells[i*w+c] = text[start:ends[c*n+i]]
			start = ends[c*n+i]
		}
	}
	for i := range rows {
		rows[i] = cells[i*w : (i+1)*w : (i+1)*w]
	}
	return rows
}

// appendColumn appends every cell of v to buf, recording where each ends.
func appendColumn(buf []byte, v *Vec, ends []int) []byte {
	const null = "NULL"
	switch t := v.Type; {
	case t.Float():
		for i, b := range v.Bits {
			if v.Null(i) {
				buf = append(buf, null...)
			} else {
				buf = strconv.AppendFloat(buf, math.Float64frombits(b), 'g', -1, 64)
			}
			ends[i] = len(buf)
		}
	case t.Signed():
		for i, b := range v.Bits {
			if v.Null(i) {
				buf = append(buf, null...)
			} else {
				buf = strconv.AppendInt(buf, int64(b), 10)
			}
			ends[i] = len(buf)
		}
	default:
		mask := ^uint64(0) >> (64 - 8*t.Size()) // expr.Value.Uint's width mask
		for i, b := range v.Bits {
			if v.Null(i) {
				buf = append(buf, null...)
			} else {
				buf = strconv.AppendUint(buf, b&mask, 10)
			}
			ends[i] = len(buf)
		}
	}
	return buf
}

// renderAggregates renders an aggregate result's one row through the same
// renderer, one single-cell vector per item.
func renderAggregates(vals []expr.Value, nulls []bool) []string {
	cols := make([]Vec, len(vals))
	for i, v := range vals {
		cols[i] = Vec{Type: v.Type, Bits: []uint64{v.Bits}}
		if nulls != nil {
			cols[i].Nulls = nulls[i : i+1]
		}
	}
	var r batchRenderer
	if rows := r.render(cols); rows != nil {
		return rows[0]
	}
	return []string{}
}
