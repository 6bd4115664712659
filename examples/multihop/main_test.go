package main

// Example bridges the partition end to end and pins the whole report.
func Example() {
	main()
	// Output:
	// partitioned pair: node 2 (west) -> node 9 (east)
	//
	// direct cost:        unreachable
	// ≤2-hop (one relay): unreachable — no single relay spans the partition
	// ≤4-hop:             101 ms via [2 13 14 9]
	//
	// connected pairs: direct 64/120, ≤2 hops 88/120, ≤4 hops 120/120
	//
	// multi-hop communication: max 3720 bytes per node over 2 iterations (Θ(n√n·log l))
}
