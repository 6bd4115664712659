package main

// Example runs the 25-node overlay end to end and pins its whole output: routing
// behaviour that moves a route, a cost or the bandwidth line fails it.
func Example() {
	main()
	// Output:
	// 25-node overlay after 2m0s of virtual time
	//
	// routing bandwidth: 1.42 Kbps per node (probing: 1.65 Kbps)
	//
	// node 0 route table:
	//   dst   via   cost(ms)  direct(ms)
	//     1     4        337        345  <- detour saves 8 ms
	//     2     4        357        366  <- detour saves 9 ms
	//     3     4        414        431  <- detour saves 17 ms
	//     4     4          0          1
	//     5     4        339        352  <- detour saves 13 ms
	//     6     4        431        435  <- detour saves 4 ms
	//     7     4        177        185  <- detour saves 8 ms
	//     8     4        445        448  <- detour saves 3 ms
	//     9     4          1          1  <- detour saves 0 ms
	//    10     4        439        452  <- detour saves 13 ms
	//    11     4        445        456  <- detour saves 11 ms
	//    12     4        341        347  <- detour saves 6 ms
	//    13     4        343        351  <- detour saves 8 ms
	//    14     4        371        376  <- detour saves 5 ms
	//    15     3        432        441  <- detour saves 9 ms
	//    16     4          1          3  <- detour saves 2 ms
	//    17     4         32         43  <- detour saves 11 ms
	//    18     4        341        347  <- detour saves 6 ms
	//    19     4         34         44  <- detour saves 10 ms
	//    20     4        341        345  <- detour saves 4 ms
	//    21     4        220        228  <- detour saves 8 ms
	//    22     4         26         40  <- detour saves 14 ms
	//    23     4        455        463  <- detour saves 8 ms
	//    24     8        448        462  <- detour saves 14 ms
	//
	// 23 of 24 routes improve on the direct path
	//
	// best route 0->12 before failure: via 4, 341 ms
	// best route 0->12 after failures:  via 9, 342 ms
}
