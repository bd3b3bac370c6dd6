//go:build !(armbe || arm64be || m68k || mips || mips64 || mips64p32 || ppc || ppc64 || s390 || s390x || shbe || sparc || sparc64)

package column

import (
	"fmt"
	"unsafe"
)

// View returns the values of a plain column as a []T aliasing its
// little-endian bytes: on a little-endian host the lanes already are Go
// values, so nothing is copied. T must be the Go type of the column's type
// (Elem); View checks its size, which memory safety needs, and the
// differential tests check the rest. The bytes must be aligned to T, which
// New, NewFromBytes and Slice guarantee. The slice is read-only, like
// Data. This file is the module's only use of unsafe; big-endian hosts
// build view_be.go instead.
func View[T Elem](c *Column) []T {
	if c.packed != nil || unsafe.Sizeof(*new(T)) != uintptr(c.typ.Size()) {
		panic(fmt.Sprintf("column %s: no %T view of a %s column (packed %t)", c.name, *new(T), c.typ, c.packed != nil))
	}
	if c.n == 0 {
		return nil
	}
	if !aligned(c.data, c.typ.Size()) {
		panic("column " + c.name + ": lanes are not aligned to their size")
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&c.data[0])), c.n)
}

// aligned reports whether data starts on a multiple of size bytes.
func aligned(data []byte, size int) bool {
	return uintptr(unsafe.Pointer(unsafe.SliceData(data)))%uintptr(size) == 0
}
