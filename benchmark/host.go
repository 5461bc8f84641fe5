package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"herosign/internal/sha2"
)

// fingerprint records where and on what a result was measured. Results from
// hosts that differ in CPU model, core count or SHA backend are not
// comparable, and compare refuses them.
type fingerprint struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	SHABackend string  `json:"sha_backend"` // native, stdlib or portable
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	WindowS    float64 `json:"window_s"`
}

func hostFingerprint(c config) fingerprint {
	f := fingerprint{
		CPU: "unknown", NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), SHABackend: "portable", Commit: "unknown",
		Seed: c.seed, WindowS: c.seconds,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				f.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	switch {
	case sha2.Native():
		f.SHABackend = "native"
	case sha2.Accelerated():
		f.SHABackend = "stdlib"
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				f.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					f.Commit += "+dirty"
				}
			}
		}
	}
	return f
}

func (f fingerprint) String() string {
	return fmt.Sprintf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s sha=%s commit=%s seed=%d window=%gs",
		f.CPU, f.NProc, f.GoMaxProcs, f.GoVersion, f.SHABackend, f.Commit, f.Seed, f.WindowS)
}

// comparable reports why results under f and o may not be compared, or "".
func (f fingerprint) comparable(o fingerprint) string {
	switch {
	case f.CPU != o.CPU:
		return fmt.Sprintf("CPU model differs: %q vs %q", f.CPU, o.CPU)
	case f.NProc != o.NProc:
		return fmt.Sprintf("core count differs: %d vs %d", f.NProc, o.NProc)
	case f.SHABackend != o.SHABackend:
		return fmt.Sprintf("SHA backend differs: %s vs %s", f.SHABackend, o.SHABackend)
	}
	return ""
}
