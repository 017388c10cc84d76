package fuzz

import (
	_ "unsafe" // go:linkname

	"lfi/internal/arm64"
	"lfi/internal/core"
	"lfi/internal/rewrite"
	"lfi/internal/verifier"
)

// The toolchain's four large-input stages split their input into as many
// chunks as its size and GOMAXPROCS warrant, and no caller may choose the
// count. The fuzz oracles must, to compare a split run with a single
// pass on every input however small, so they reach the unexported forms
// that take the count.

//go:linkname parseFile lfi/internal/arm64.parseFile
func parseFile(src string, k int) (*arm64.File, error)

//go:linkname assemble lfi/internal/arm64.assemble
func assemble(f *arm64.File, layout arm64.Layout, k int) (*arm64.Image, error)

//go:linkname rewriteFile lfi/internal/rewrite.rewriteFile
func rewriteFile(f *arm64.File, opts core.Options, k int) (*arm64.File, rewrite.Stats, error)

//go:linkname verifyText lfi/internal/verifier.verifyText
func verifyText(text []byte, cfg verifier.Config, k int) (verifier.Stats, error)
