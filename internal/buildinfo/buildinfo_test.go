package buildinfo

import (
	"runtime/debug"
	"strings"
	"testing"
)

func TestVersionNonEmpty(t *testing.T) {
	if Version() == "" {
		t.Fatal("Version returned an empty string")
	}
}

func TestVersionMemoized(t *testing.T) {
	first := Version()
	if again := Version(); again != first {
		t.Fatalf("Version changed between calls: %q then %q", first, again)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = Version() }); allocs != 0 {
		t.Fatalf("Version allocates %.1f times per call after the first, want 0", allocs)
	}
}

func TestVersionFrom(t *testing.T) {
	cases := []struct {
		name string
		bi   *debug.BuildInfo
		want string
	}{
		{
			name: "tagged module",
			bi:   &debug.BuildInfo{Main: debug.Module{Version: "v1.2.3"}},
			want: "v1.2.3",
		},
		{
			name: "devel module falls back to revision",
			bi: &debug.BuildInfo{
				Main: debug.Module{Version: "(devel)"},
				Settings: []debug.BuildSetting{
					{Key: "vcs.revision", Value: "0123456789abcdef0123"},
				},
			},
			want: "0123456789ab",
		},
		{
			name: "dirty tree",
			bi: &debug.BuildInfo{
				Settings: []debug.BuildSetting{
					{Key: "vcs.revision", Value: "abc123"},
					{Key: "vcs.modified", Value: "true"},
				},
			},
			want: "abc123+dirty",
		},
		{
			name: "no info at all",
			bi:   &debug.BuildInfo{},
			want: "devel",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := versionFrom(tc.bi); got != tc.want {
				t.Fatalf("versionFrom = %q, want %q", got, tc.want)
			}
		})
	}
}

func TestLine(t *testing.T) {
	line := Line("hsrbench")
	if !strings.HasPrefix(line, "hsrbench ") {
		t.Fatalf("Line = %q, want prefix %q", line, "hsrbench ")
	}
	if !strings.Contains(line, "(") || !strings.HasSuffix(line, ")") {
		t.Fatalf("Line = %q, want trailing parenthesized toolchain", line)
	}
}
