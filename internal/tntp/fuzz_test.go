package tntp

import (
	"bytes"
	"os"
	"testing"
)

// malformed are (network, trips) pairs the parser and Instance used to
// panic on; each must now fail with an error.
var malformed = []struct{ name, net, trips string }{
	{
		"empty zone count",
		"<NUMBER OF ZONES>\n<NUMBER OF NODES> 2\n<NUMBER OF LINKS> 0\n<END OF METADATA>\n",
		"<NUMBER OF ZONES> 2\n<END OF METADATA>\n",
	},
	{
		"empty total OD flow",
		"<NUMBER OF ZONES> 2\n<NUMBER OF NODES> 2\n<NUMBER OF LINKS> 0\n<END OF METADATA>\n",
		"<NUMBER OF ZONES> 2\n<TOTAL OD FLOW>\n<END OF METADATA>\n",
	},
	{
		"more zones than nodes",
		"<NUMBER OF ZONES> 3\n<NUMBER OF NODES> 2\n<NUMBER OF LINKS> 1\n<END OF METADATA>\n1 2 100 1 1 0.15 4 0 0 1 ;\n",
		"<NUMBER OF ZONES> 3\n<END OF METADATA>\nOrigin 3\n1 : 5.0;\n",
	},
	{
		"negative node count",
		"<NUMBER OF ZONES> 1\n<NUMBER OF NODES> -5\n<NUMBER OF LINKS> 0\n<END OF METADATA>\n",
		"<NUMBER OF ZONES> 1\n<END OF METADATA>\n",
	},
}

// build parses both documents and assembles the instance.
func build(net, trips []byte) error {
	n, err := ParseNet(bytes.NewReader(net))
	if err != nil {
		return err
	}
	tr, err := ParseTrips(bytes.NewReader(trips))
	if err != nil {
		return err
	}
	_, err = Instance(n, tr, Options{})
	return err
}

func TestMalformedInputsFail(t *testing.T) {
	for _, tc := range malformed {
		if err := build([]byte(tc.net), []byte(tc.trips)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// FuzzInstance asserts that every (network, trips) pair ends in an error or
// an instance, never a panic.
func FuzzInstance(f *testing.F) {
	net, err := os.ReadFile(netFixture)
	if err != nil {
		f.Fatal(err)
	}
	trips, err := os.ReadFile(tripsFixture)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(net, trips)
	for _, tc := range malformed {
		f.Add([]byte(tc.net), []byte(tc.trips))
	}
	f.Fuzz(func(t *testing.T, netDoc, tripsDoc []byte) {
		n, err := ParseNet(bytes.NewReader(netDoc))
		if err != nil {
			return
		}
		tr, err := ParseTrips(bytes.NewReader(tripsDoc))
		if err != nil {
			return
		}
		// Instance allocates per declared node; keep each iteration small.
		if n.Nodes > 10_000 {
			t.Skip("too many nodes for a fuzz iteration")
		}
		// Two paths per OD pair still run Yen's spur search, at a fifth of
		// the default eight's cost on Sioux Falls (4 ms against 22 ms).
		inst, err := Instance(n, tr, Options{KPaths: 2})
		if err == nil && inst == nil {
			t.Fatal("Instance returned neither an instance nor an error")
		}
	})
}
