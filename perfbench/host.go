package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"haspmv/internal/stream"
)

// hostStamp describes the host a result was measured on, so numbers from
// a 2-CPU virtual machine never mix with numbers from a multi-core one.
func hostStamp() map[string]any {
	goamd64 := ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				goamd64 = s.Value
			}
		}
	}
	if goamd64 == "" && runtime.GOARCH == "amd64" {
		goamd64 = "v1"
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"llc_bytes":  llcBytes(),
		"goamd64":    goamd64,
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown"
// where the file does not exist).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// llcBytes returns the size of the highest-level cache CPU 0 reports in
// sysfs (0 where sysfs does not describe caches).
func llcBytes() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	bestLevel, best := 0, int64(0)
	for _, d := range dirs {
		lv, err1 := os.ReadFile(filepath.Join(d, "level"))
		sz, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		level, err := strconv.Atoi(strings.TrimSpace(string(lv)))
		if err != nil || level < bestLevel {
			continue
		}
		s := strings.TrimSpace(string(sz))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			continue
		}
		bestLevel, best = level, n*mult
	}
	return best
}

// minTriadArrayBytes is the smallest triad array: four times a 105 MiB
// last level cache.
const minTriadArrayBytes = 4 * 105 << 20

// triadArrayBytes sizes each triad array at four times the host's last
// level cache (at least minTriadArrayBytes), so the three arrays stream
// from memory. The three arrays are capped at half the memory the kernel
// reports available; a capped triad is stamped (dram_bound false), since
// part of it can stay in cache and read high.
func triadArrayBytes(llc int64) (bytes int64, dramBound bool) {
	bytes = max(4*llc, minTriadArrayBytes)
	if avail := memAvailable(); avail > 0 && 3*bytes > avail/2 {
		bytes = avail / 6
	}
	return bytes, llc == 0 || bytes >= 4*llc
}

// memAvailable reads MemAvailable from /proc/meminfo (0 where the file
// does not exist).
func memAvailable() int64 {
	data, err := os.ReadFile("/proc/meminfo")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) >= 2 && f[0] == "MemAvailable:" {
			kb, err := strconv.ParseInt(f[1], 10, 64)
			if err == nil {
				return kb << 10
			}
		}
	}
	return 0
}

// triadResult is the memory layer's roofline bound.
type triadResult struct {
	GBps       float64 `json:"gbps"`
	ArrayBytes int64   `json:"array_bytes"`
	LLCBytes   int64   `json:"llc_bytes"`
	// DRAMBound is false when memory could not hold arrays of four times
	// the LLC.
	DRAMBound bool    `json:"dram_bound"`
	Workers   int     `json:"workers"`
	Reps      int     `json:"reps"`
	Seconds   float64 `json:"seconds"`
}

// measureTriad runs the host stream triad across GOMAXPROCS workers.
// Test-sized runs use 4 MiB arrays.
func measureTriad(cfg config) triadResult {
	llc := llcBytes()
	bytes, dram := triadArrayBytes(llc)
	reps := 5
	if cfg.small {
		bytes, dram, reps = 4<<20, false, 3
	}
	workers := runtime.GOMAXPROCS(0)
	t0 := time.Now()
	gbps := stream.HostTriad(workers, int(bytes/8), reps)
	r := triadResult{
		GBps: gbps, ArrayBytes: bytes, LLCBytes: llc, DRAMBound: dram,
		Workers: workers, Reps: reps, Seconds: time.Since(t0).Seconds(),
	}
	runtime.GC()
	debug.FreeOSMemory()
	return r
}
