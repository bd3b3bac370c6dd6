package scan

import (
	"fmt"

	"fusedscan/internal/column"
	"fusedscan/internal/expr"
	"fusedscan/internal/mach"
	"fusedscan/internal/vec"
)

// DictScan scans a dictionary-encoded, bit-packed column — the paper's
// future-work direction ("the concept of bit-packing (aka. null
// suppression) can be most beneficial for our approach. The main challenge
// will be the extraction of single values"). The predicate is rewritten
// into code space against the sorted dictionary (column.CodePredicate);
// the kernel then streams the *packed* representation (moving
// codeBits/32 of the plain column's bytes over the memory bus), unpacks
// one block of codes per iteration into a vector register, and applies the
// unchanged fused compare/compress sequence.
type DictScan struct {
	dict  *column.DictColumn
	codes column.CodeRange
	width vec.Width
}

// NewDictScan builds the kernel for "col op value" over an encoded column.
func NewDictScan(d *column.DictColumn, op expr.CmpOp, value expr.Value, w vec.Width) (*DictScan, error) {
	if !w.Valid() {
		return nil, fmt.Errorf("scan: invalid register width %d", int(w))
	}
	codes, err := d.CodePredicate(op, value)
	if err != nil {
		return nil, err
	}
	return &DictScan{dict: d, codes: codes, width: w}, nil
}

// Name implements Kernel.
func (s *DictScan) Name() string {
	return fmt.Sprintf("AVX-512 Dict Fused (%d, %d-bit codes)", int(s.width), s.dict.CodeBits())
}

// unpackOpsPerBlock is the modelled cost of extracting one register of
// bit-packed codes: a shifted load plus shift/and/shuffle steps, following
// the SIMD-scan unpack pipelines of Willhalm et al. that the paper cites.
const unpackOpsPerBlock = 4

// Run executes the dictionary scan.
func (s *DictScan) Run(cpu *mach.CPU, wantPositions bool) Result {
	var res Result
	if s.codes.Empty() {
		return res
	}
	d := s.dict
	w := s.width
	n := d.Len()
	lanes := w.Lanes(4) // codes are compared as uint32 lanes
	stream := cpu.NewStream()
	// The unpack rebases each code on the range's low end, so one unsigned
	// compare decides the range: code - Lo < Hi - Lo, or >= when Out.
	op := expr.Lt
	if s.codes.Out {
		op = expr.Ge
	}
	needle := vec.Set1(w, 4, uint64(s.codes.Hi-s.codes.Lo))
	cpu.Vec(vec.IsaAVX512, vec.OpSet1, w)

	for b := 0; b < n; b += lanes {
		rows := lanes
		if n-b < rows {
			rows = n - b
		}
		// Stream the packed bits this block occupies (a block spans at
		// most two cache lines: lanes*codeBits <= 64 bytes).
		startBit := b * d.CodeBits()
		startByte := startBit / 8
		endByte := (startBit + rows*d.CodeBits() + 7) / 8
		cpu.StreamRead(stream, d.Base()+uint64(startByte), 1)
		cpu.StreamRead(stream, d.Base()+uint64(endByte-1), 1)

		// Unpack the codes into a register (charged as the SIMD unpack
		// pipeline), then the usual compare / compress-to-positions steps.
		var reg vec.Reg
		for l := 0; l < rows; l++ {
			reg.SetLane(4, l, uint64(d.Code(b+l)-s.codes.Lo))
		}
		for i := 0; i < unpackOpsPerBlock; i++ {
			cpu.Vec(vec.IsaAVX512, vec.OpAdd, w)
		}

		m := vec.CmpMask(w, expr.Uint32, op, reg, needle)
		cpu.Vec(vec.IsaAVX512, vec.OpCmpMask, w)
		m &= vec.FirstN(rows)
		cpu.Vec(vec.IsaAVX512, vec.OpKMov, w)
		cpu.Scalar(2)
		has := m != 0
		cpu.Branch(siteBlockMatch, has)
		if !has {
			continue
		}
		cnt := m.PopCount(rows)
		res.Count += cnt
		cpu.Vec(vec.IsaAVX512, vec.OpCompress, w)
		cpu.Scalar(1)
		if wantPositions {
			for l := 0; l < rows; l++ {
				if m.Bit(l) {
					res.Positions = append(res.Positions, uint32(b+l))
				}
			}
		}
	}
	return res
}
