package main

import (
	"bytes"
	"os"
	"testing"
)

// TestGeneratedKernelsUpToDate fails when the checked-in
// native_kernels_gen.go differs from what the generator renders: the file
// was edited by hand, or the generator changed without `go generate
// ./internal/scan`.
func TestGeneratedKernelsUpToDate(t *testing.T) {
	want, err := render()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../native_kernels_gen.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("internal/scan/native_kernels_gen.go is stale: run `go generate ./internal/scan`")
	}
}
