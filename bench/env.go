package main

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// Env records where a result was measured.
type Env struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	// LoadAvg is /proc/loadavg when the run started.
	LoadAvg string `json:"loadavg"`
	// DataDirFS is the filesystem type under the run directory, where the
	// replicas' logs are appended and fsynced.
	DataDirFS string `json:"data_dir_fs"`
}

func readEnv(runDir string) *Env {
	return &Env{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		LoadAvg:    firstLine("/proc/loadavg"),
		DataDirFS:  fsTypeOf(runDir),
	}
}

func firstLine(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return strings.TrimSpace(line)
}

// fsTypeOf names the filesystem holding path: the type of the longest mount
// point in /proc/self/mounts that prefixes it.
func fsTypeOf(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	return fsTypeFromMounts(data, abs)
}

func fsTypeFromMounts(mounts []byte, abs string) string {
	best, fs := "", "unknown"
	sc := bufio.NewScanner(bytes.NewReader(mounts))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		under := abs == mp || mp == "/" || strings.HasPrefix(abs, mp+"/")
		if under && len(mp) >= len(best) {
			best, fs = mp, f[2]
		}
	}
	return fs
}
