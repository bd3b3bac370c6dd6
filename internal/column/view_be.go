//go:build armbe || arm64be || m68k || mips || mips64 || mips64p32 || ppc || ppc64 || s390 || s390x || shbe || sparc || sparc64

package column

// View returns the values of a plain column as a []T. Column bytes are
// little-endian, so on this big-endian host they cannot be read in place:
// View decodes a typed copy, one lane at a time.
func View[T Elem](c *Column) []T {
	if c.packed != nil {
		panic("column " + c.name + ": no view of a packed column")
	}
	out := make([]T, c.n)
	for i := range out {
		out[i] = FromRaw[T](c.Raw(i))
	}
	return out
}

// aligned reports true: View copies, so lanes need no alignment here.
func aligned([]byte, int) bool { return true }
