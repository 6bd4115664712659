// Command coordinator runs the overlay's centralized membership service
// (§5): it admits joining nodes, assigns 2-byte node IDs, broadcasts
// versioned membership views, and expires nodes that miss heartbeats for the
// membership timeout (30 minutes by default, as in the paper).
//
// The service can run replicated: start one process per replica with the
// same -peers list (every replica's address in rank order) and a distinct
// -rank. Rank 0 boots as primary and beacons the others; a standby promotes
// in rank order when the primary's beacons go silent. Overlay nodes send
// every heartbeat to all replicas, so it hears each one's next heartbeat.
// A heartbeat renews the node's lease and draws nothing; one from an ID the
// primary seats no member under draws its view stamp, and the node rejoins.
//
// Usage:
//
//	coordinator -listen :4400
//	coordinator -listen :4400 -rank 1 -peers host0:4400,host1:4400,host2:4400
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"allpairs"
)

func main() {
	listen := flag.String("listen", ":4400", "UDP listen address")
	rank := flag.Int("rank", 0, "replica rank in the coordinator set (0 = boot primary)")
	peers := flag.String("peers", "", "comma-separated replica addresses in rank order (empty = solo)")
	flag.Parse()

	log.SetPrefix("coordinator: ")
	var peerList []string
	if *peers != "" {
		peerList = strings.Split(*peers, ",")
	}
	c, err := allpairs.StartCoordinator(allpairs.CoordinatorOptions{
		Listen: *listen,
		Rank:   *rank,
		Peers:  peerList,
		Logf:   log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	if len(peerList) > 1 {
		role := "standby"
		if c.IsPrimary() {
			role = "primary"
		}
		log.Printf("serving membership on %s (rank %d of %d, %s)", c.Addr(), *rank, len(peerList), role)
	} else {
		log.Printf("serving membership on %s", c.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down with %d members", c.MemberCount())
}
