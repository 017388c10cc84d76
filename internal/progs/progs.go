// Package progs builds sandbox executables from assembly source through
// the full LFI pipeline: parse -> rewrite (guard insertion) -> assemble ->
// ELF. It is shared by the runtime tests, the workloads, the examples, and
// the benchmark harness.
package progs

import (
	"fmt"

	"lfi/internal/arm64"
	"lfi/internal/core"
	"lfi/internal/elfobj"
	"lfi/internal/rewrite"
)

// BuildResult carries the built binary along with size information for
// the code-size evaluation (§6.3).
type BuildResult struct {
	ELF      []byte
	TextSize int
	FileSize int
	Stats    rewrite.Stats
}

// Build rewrites src with opts, assembles it at the standard sandbox code
// offset, and packages it as an ELF executable.
func Build(src string, opts core.Options) (*BuildResult, error) {
	f, err := arm64.ParseFile(src)
	if err != nil {
		return nil, err
	}
	nf, stats, err := rewrite.Rewrite(f, opts)
	if err != nil {
		return nil, err
	}
	b, err := assemble(nf)
	if err != nil {
		return nil, err
	}
	b.Stats = stats
	return b, nil
}

// BuildNative assembles src without inserting guards. The result does not
// verify; it reproduces the paper's "native code running within the LFI
// environment" baseline (§6.1), loaded with verification disabled.
func BuildNative(src string) (*BuildResult, error) {
	f, err := arm64.ParseFile(src)
	if err != nil {
		return nil, err
	}
	return assemble(f)
}

func assemble(f *arm64.File) (*BuildResult, error) {
	img, err := arm64.Assemble(f, arm64.Layout{
		TextBase: core.MinCodeOffset,
		PageSize: 16 * 1024,
	})
	if err != nil {
		return nil, err
	}
	exe := elfobj.FromImage(img)
	elfBytes, err := exe.Marshal()
	if err != nil {
		return nil, err
	}
	return &BuildResult{
		ELF:      elfBytes,
		TextSize: len(img.Text),
		FileSize: len(elfBytes),
	}, nil
}

// RTCall returns the assembly for invoking runtime call rc (§4.4):
//
//	ldr x30, [x21, #8*rc]
//	blr x30
//
// Arguments go in x0..x5 beforehand; the result arrives in x0.
func RTCall(rc core.RuntimeCall) string {
	return fmt.Sprintf("\tldr x30, [x21, #%d]\n\tblr x30\n", rc.TableOffset())
}

// Exit returns assembly that terminates the sandbox with the status held
// in x0.
func Exit() string { return RTCall(core.RTExit) }

// ExitCode returns assembly that terminates with a constant status.
func ExitCode(status int) string {
	return fmt.Sprintf("\tmov x0, #%d\n%s", status, Exit())
}
