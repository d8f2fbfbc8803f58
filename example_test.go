package safecube_test

import (
	"fmt"

	safecube "repro"
)

// The paper's Fig. 1 walkthrough: compute safety levels and route a
// unicast from a safe source.
func Example() {
	cube := safecube.MustNew(4)
	if err := cube.FailNamed("0011", "0100", "0110", "1001"); err != nil {
		panic(err)
	}
	levels := cube.ComputeLevels()
	fmt.Println("rounds:", levels.Rounds())
	fmt.Println("S(0101):", levels.Level(cube.MustParse("0101")))

	route := cube.Unicast(cube.MustParse("1110"), cube.MustParse("0001"))
	fmt.Println(route.Outcome, "via", route.Condition)
	fmt.Println(route.PathString(cube))
	// Output:
	// rounds: 2
	// S(0101): 2
	// optimal via C1
	// 1110 -> 1111 -> 1101 -> 0101 -> 0001
}

// Feasibility is a pure source-side check: it predicts the outcome
// class without moving a message.
func ExampleCube_Feasibility() {
	cube := safecube.MustNew(4)
	if err := cube.FailNamed("0110", "1010", "1100", "1111"); err != nil {
		panic(err)
	}
	// Destination 1110 is cut off by the four faults.
	cond, outcome := cube.Feasibility(cube.MustParse("0111"), cube.MustParse("1110"))
	fmt.Println(cond, outcome)
	// In-component destinations remain reachable.
	cond, outcome = cube.Feasibility(cube.MustParse("0101"), cube.MustParse("0000"))
	fmt.Println(cond, outcome)
	// Output:
	// none failure
	// C1 optimal
}

// A C2 unicast: the source is only 1-safe, but a preferred neighbor
// with level H-1 still guarantees an optimal path.
func ExampleCube_Unicast() {
	cube := safecube.MustNew(4)
	if err := cube.FailNamed("0011", "0100", "0110", "1001"); err != nil {
		panic(err)
	}
	route := cube.Unicast(cube.MustParse("0001"), cube.MustParse("1100"))
	fmt.Println(route.Outcome, "via", route.Condition)
	fmt.Println(route.PathString(cube))
	// Output:
	// optimal via C2
	// 0001 -> 0000 -> 1000 -> 1100
}

// Link faults (Section 4.1): the endpoints of a dead link expose level
// 0 but keep their own, higher level for routing decisions.
func ExampleCube_FailLink() {
	cube := safecube.MustNew(4)
	if err := cube.FailNamed("0000", "0100", "1100", "1110"); err != nil {
		panic(err)
	}
	if err := cube.FailLink(cube.MustParse("1000"), cube.MustParse("1001")); err != nil {
		panic(err)
	}
	levels := cube.ComputeLevels()
	fmt.Println("public:", levels.Level(cube.MustParse("1001")),
		"own:", levels.OwnLevel(cube.MustParse("1001")))

	route := cube.Unicast(cube.MustParse("1101"), cube.MustParse("1000"))
	fmt.Println(route.Outcome, "in", route.Hops(), "hops (H =", route.Hamming, ")")
	// Output:
	// public: 0 own: 2
	// suboptimal in 4 hops (H = 2 )
}

// The generalized hypercube of Fig. 5 (Section 4.2).
func ExampleNewGeneralized() {
	gh := safecube.MustNewGeneralized(2, 3, 2)
	if err := gh.FailNamed("011", "100", "111", "121"); err != nil {
		panic(err)
	}
	levels := gh.ComputeLevels()
	fmt.Println("safe nodes:", len(levels.SafeSet()))

	route := gh.Unicast(gh.MustParse("010"), gh.MustParse("101"))
	fmt.Println(route.Outcome, route.PathString(gh))
	// Output:
	// safe nodes: 4
	// optimal 010 -> 000 -> 001 -> 101
}

// Distributed execution: the same protocols running goroutine-per-node
// with real message passing.
func ExampleCube_Distributed() {
	cube := safecube.MustNew(4)
	if err := cube.FailNamed("0011", "0100", "0110", "1001"); err != nil {
		panic(err)
	}
	dist := cube.Distributed()
	defer dist.Close()
	dist.RunGS()
	fmt.Println("stable at round", dist.StableRound())

	route := dist.Unicast(cube.MustParse("1110"), cube.MustParse("0001"))
	fmt.Println(route.Outcome, route.PathString(cube))
	// Output:
	// stable at round 2
	// optimal 1110 -> 1111 -> 1101 -> 0101 -> 0001
}

// Mid-flight failures: step a unicast hop by hop, survive a blockage
// with a recompute-and-reroute (the paper's demand-driven maintenance).
func ExampleCube_StartUnicast() {
	cube := safecube.MustNew(5)
	sess, _, outcome := cube.StartUnicast(cube.MustParse("00000"), cube.MustParse("00111"))
	fmt.Println("admitted:", outcome)

	sess.Step() // 00000 -> 00001
	cube.FailNamed("00011", "00101")

	if _, err := sess.Step(); err == safecube.ErrBlocked {
		fmt.Println("blocked; rerouting")
		_, out := sess.Reroute()
		fmt.Println("re-admitted:", out)
	}
	arrived, _ := sess.Run()
	fmt.Println("arrived:", arrived, "hops:", sess.Hops(), "reroutes:", sess.Reroutes())
	// Output:
	// admitted: optimal
	// blocked; rerouting
	// re-admitted: suboptimal
	// arrived: true hops: 5 reroutes: 1
}

// Broadcasting from a safe node covers the whole component with the
// level-ranked binomial tree.
func ExampleCube_Broadcast() {
	cube := safecube.MustNew(4)
	if err := cube.FailNamed("0011", "0100", "0110", "1001"); err != nil {
		panic(err)
	}
	res := cube.Broadcast(cube.MustParse("1110"))
	fmt.Println("covered:", len(res.Depth), "rounds:", res.Rounds, "missed:", len(res.Missed))
	// Output:
	// covered: 12 rounds: 4 missed: 0
}
