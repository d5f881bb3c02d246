package cluster

import "testing"

func TestParsePeers(t *testing.T) {
	nodes, err := ParsePeers(" n1=http://a:1 , n2=http://b:2/ ")
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 || nodes[0] != (Node{ID: "n1", URL: "http://a:1"}) ||
		nodes[1] != (Node{ID: "n2", URL: "http://b:2"}) {
		t.Fatalf("parsed %+v", nodes)
	}
	if FindNode(nodes, "n2") != 1 || FindNode(nodes, "nope") != -1 {
		t.Fatal("FindNode wrong")
	}
	for _, bad := range []string{"", "n1", "n1=", "=http://a:1", "n1=ftp://a:1"} {
		if _, err := ParsePeers(bad); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}
