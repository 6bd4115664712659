package main

// Example runs the one-hop rescue study end to end and pins the whole report.
func Example() {
	main()
	// Output:
	// 12390 host pairs have direct RTT > 400 ms
	//
	// best one-hop relay fixes   8380 pairs (68%)
	// best-of-4 random relays fix 1139 pairs (9%)
	//
	// latency saved by the optimal relay (rescued pairs): median 602 ms, p90 877 ms
	//
	// largest improvements:
	//   pair          direct    via relay   saved
	//    59 <-> 171   1800 ms     77 ms (via 308)   1723 ms
	//    99 <-> 122   1746 ms     89 ms (via 142)   1657 ms
	//   122 <-> 187   1800 ms    162 ms (via 6)   1638 ms
	//   236 <-> 274   1800 ms    170 ms (via 179)   1630 ms
	//   319 <-> 339   1800 ms    172 ms (via 81)   1628 ms
	//
	// why a quorum overlay: finding these relays needs optimal one-hop routing;
	// for 359 nodes the quorum protocol does it at ~n^1.5 per-node traffic instead of n^2.
}
