package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestReadmeListsEveryExperiment holds README's "Experiments" table to
// the experiments table: the same ids, neither side ahead of the other.
func TestReadmeListsEveryExperiment(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## Experiments\n")
	if !ok {
		t.Fatal("README has no Experiments section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var documented []string
	id := regexp.MustCompile("`([a-z0-9]+)`")
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		firstCell, _, _ := strings.Cut(line[1:], "|")
		for _, m := range id.FindAllStringSubmatch(firstCell, -1) {
			documented = append(documented, m[1])
		}
	}
	var runnable []string
	for _, e := range experiments {
		runnable = append(runnable, e.id)
	}
	slices.Sort(documented)
	slices.Sort(runnable)
	if !slices.Equal(documented, runnable) {
		t.Fatalf("README documents %v, psibench runs %v", documented, runnable)
	}
}

// TestPsibenchHelperProcess is not a test: re-executed with
// PSIBENCH_HELPER_ARGS set, it is psibench's main on those arguments.
func TestPsibenchHelperProcess(t *testing.T) {
	args, ok := os.LookupEnv("PSIBENCH_HELPER_ARGS")
	if !ok {
		t.Skip("helper process for TestUnknownExperimentExits2")
	}
	os.Args = append([]string{"psibench"}, strings.Fields(args)...)
	flag.CommandLine = flag.NewFlagSet("psibench", flag.ExitOnError)
	main()
	os.Exit(0)
}

// A layer experiment that moved to the benchmark's layer rows is an
// unknown id like any other: exit status 2 and the usage text.
func TestUnknownExperimentExits2(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=TestPsibenchHelperProcess$")
	cmd.Env = append(os.Environ(), "PSIBENCH_HELPER_ARGS=-exp=churn -n=1000")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("psibench -exp=churn: %v, want exit status 2\n%s", err, stderr.String())
	}
	for _, want := range []string{`unknown experiment "churn"`, "-exp string", "fig10|ablation|all"} {
		if !strings.Contains(stderr.String(), want) {
			t.Fatalf("stderr missing %q:\n%s", want, stderr.String())
		}
	}
}
