package main

// Example runs the three §4.1 failure scenarios end to end and pins the whole report.
func Example() {
	main()
	// Output:
	// §4.1 failure scenarios on a 25-node overlay (p=30s probing, r=15s routing)
	//
	// scenario 1: direct link and current best-hop link fail
	// scenario 2: both default rendezvous (proximal) and direct link fail
	// scenario 3: one proximal + one remote rendezvous failure + direct link
	//
	// scenario   recovered_in  bound       within   failovers_used
	// 1          40s           1m10s       true     1
	// 2          37s           1m10s       true     1
	// 3          51s           2m3s        true     0
	//
	// recovery = failure injection until the source again holds the optimal
	// (ground-truth-verified) one-hop route to the destination. The bound is
	// probe detection (≤ p) plus the paper's routing-interval bound, plus the
	// remote-silence detection window for scenario 3.
}
