package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"time"
)

// calibSink keeps the calibration kernel's result live.
var calibSink uint64

// calibrate times a fixed xorshift kernel (ALU only, no memory traffic)
// and returns milliseconds. Two readings around a run show whether the
// host changed speed underneath it; the kernel tracks only the ALU part of
// such drift, so it flags runs and is never used to normalise a metric.
func calibrate() float64 {
	best := time.Duration(1 << 62)
	for rep := 0; rep < 3; rep++ {
		x := uint64(88172645463325252)
		t0 := time.Now()
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		if d := time.Since(t0); d < best {
			best = d
		}
		calibSink += x
	}
	return ms(best)
}

// statusField reads one "Key:  value unit" line of /proc/self/status.
func statusField(key string) (string, bool) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return "", false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key+":"); ok {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MB.
func peakRSSMB() float64 {
	v, ok := statusField("VmHWM")
	if !ok {
		return 0
	}
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}

// cpuModel names the host CPU for the run header.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}
