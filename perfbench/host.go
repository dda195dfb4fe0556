package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// fingerprint identifies the host and the code a result was measured on.
// Results with different fingerprints are not comparable; the compare
// command refuses to put them side by side.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	// Commit is the git commit when the checkout is a repository ("-dirty"
	// when tracked files differ from it), and "unknown" otherwise.
	Commit string `json:"commit"`
}

// hostKey is the part of the fingerprint that must match for two results
// to be compared: everything but the code under test.
func (f fingerprint) hostKey() fingerprint {
	f.Commit = ""
	return f
}

func takeFingerprint(root string) fingerprint {
	return fingerprint{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     kernelRelease(),
		Commit:     commitOf(root),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func commitOf(root string) string {
	// A checkout without its own .git must not report an enclosing
	// repository's commit.
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "-C", root, "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
		commit += "-dirty"
	}
	return commit
}
