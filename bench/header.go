package main

import (
	"os"
	"runtime"
	"strings"
	"time"
)

// header is the provenance every result file starts with.
type header struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Date       string `json:"date"`
	Seed       int64  `json:"seed"`
}

// newHeader describes this process. The commit comes from run.sh, which
// knows whether the checkout is a git repository.
func newHeader(seed int64) header {
	commit := os.Getenv("SKYBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return header{
		Commit:     commit,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Date:       time.Now().UTC().Format(time.RFC3339),
		Seed:       seed,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
