// Package buildinfo derives a version string for the command-line tools
// from the build metadata the Go toolchain embeds, so every binary answers
// -version without a hand-maintained constant or linker flags.
package buildinfo

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// Version returns the best version identifier available from the embedded
// build info: the module version when the binary was built from a tagged
// module, otherwise the VCS revision (suffixed with "+dirty" for modified
// trees), otherwise "devel". The build info cannot change while the binary
// runs, so it is parsed once; cache opens, job results and /metrics
// scrapes then read the stored string.
func Version() string { return version() }

var version = sync.OnceValue(func() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "devel"
	}
	return versionFrom(bi)
})

// versionFrom extracts the identifier from parsed build info (split out so
// tests can feed synthetic values).
func versionFrom(bi *debug.BuildInfo) string {
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	var rev string
	dirty := false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "devel"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// Line renders the one-line -version output for a tool: name, version, and
// the Go toolchain that built the binary.
func Line(tool string) string {
	goVersion := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.GoVersion != "" {
		goVersion = bi.GoVersion
	}
	return fmt.Sprintf("%s %s (%s)", tool, Version(), goVersion)
}
