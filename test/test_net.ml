(* Tests for the net substrate: bit vectors, bit fields, addresses,
   protocol codecs, header definitions/linkage, parsed-header maps,
   metadata, the id-keyed accessors template compilation binds to, and
   the traffic generator. *)

module B = Net.Bits

let check = Alcotest.check

let bits_testable =
  Alcotest.testable (fun fmt b -> B.pp fmt b) B.equal

(* --- Bits: basics ------------------------------------------------------- *)

let test_bits_of_int () =
  check Alcotest.int "width kept" 16 (B.width (B.of_int ~width:16 0xABCD));
  check Alcotest.int "value back" 0xABCD (B.to_int (B.of_int ~width:16 0xABCD));
  check Alcotest.int "truncation to width" 0xCD (B.to_int (B.of_int ~width:8 0xABCD));
  check Alcotest.int "sub-byte width" 5 (B.to_int (B.of_int ~width:3 13))

let test_bits_normalized_equal () =
  (* equal values with set padding bits must be equal after normalisation *)
  let a = B.of_int ~width:4 0x0F in
  let b = B.create ~width:4 "\xFF" in
  check bits_testable "padding cleared" a b

let test_bits_zero_ones () =
  check Alcotest.bool "zero is zero" true (B.is_zero (B.zero 37));
  check Alcotest.int "ones value (7 bits)" 127 (B.to_int (B.ones 7));
  check Alcotest.bool "ones not zero" false (B.is_zero (B.ones 1))

let test_bits_get_bit () =
  let v = B.of_int ~width:8 0b10110001 in
  let expect = [ true; false; true; true; false; false; false; true ] in
  List.iteri (fun i e -> check Alcotest.bool (Printf.sprintf "bit %d" i) e (B.get_bit v i)) expect

let test_bits_concat_slice () =
  let a = B.of_int ~width:4 0xA and b = B.of_int ~width:8 0xBC in
  let c = B.concat a b in
  check Alcotest.int "concat width" 12 (B.width c);
  check Alcotest.int "concat value" 0xABC (B.to_int c);
  check bits_testable "slice front" a (B.slice c ~off:0 ~len:4);
  check bits_testable "slice back" b (B.slice c ~off:4 ~len:8)

let test_bits_arith () =
  let w = 8 in
  check Alcotest.int "add" 30 (B.to_int (B.add (B.of_int ~width:w 10) (B.of_int ~width:w 20)));
  check Alcotest.int "add wraps" 4 (B.to_int (B.add (B.of_int ~width:w 250) (B.of_int ~width:w 10)));
  check Alcotest.int "sub" 5 (B.to_int (B.sub (B.of_int ~width:w 15) (B.of_int ~width:w 10)));
  check Alcotest.int "sub wraps" 251 (B.to_int (B.sub (B.of_int ~width:w 1) (B.of_int ~width:w 6)));
  check Alcotest.int "succ" 1 (B.to_int (B.succ (B.of_int ~width:w 0)));
  check Alcotest.int "pred wraps" 255 (B.to_int (B.pred (B.of_int ~width:w 0)))

let test_bits_wide_arith () =
  (* 128-bit addition with carry across byte boundaries *)
  let a = B.of_hex ~width:128 "0000000000000000ffffffffffffffff" in
  let one = B.of_int ~width:128 1 in
  let sum = B.add a one in
  check Alcotest.string "carry propagates" "00000000000000010000000000000000" (B.to_hex sum)

let test_bits_logic () =
  let a = B.of_int ~width:8 0b11001100 and b = B.of_int ~width:8 0b10101010 in
  check Alcotest.int "and" 0b10001000 (B.to_int (B.logand a b));
  check Alcotest.int "or" 0b11101110 (B.to_int (B.logor a b));
  check Alcotest.int "xor" 0b01100110 (B.to_int (B.logxor a b));
  check Alcotest.int "not" 0b00110011 (B.to_int (B.lognot a))

let test_bits_resize () =
  let v = B.of_int ~width:8 0xAB in
  check Alcotest.int "extend keeps value" 0xAB (B.to_int (B.resize v 16));
  check Alcotest.int "extend width" 16 (B.width (B.resize v 16));
  check Alcotest.int "truncate keeps low bits" 0xB (B.to_int (B.resize v 4))

let test_bits_compare_orders_numerically () =
  let mk = B.of_int ~width:24 in
  check Alcotest.bool "lt" true (B.compare (mk 5) (mk 6) < 0);
  check Alcotest.bool "gt across bytes" true (B.compare (mk 70000) (mk 69999) > 0)

let test_bits_ternary_match () =
  let value = B.of_int ~width:8 0b10100000 in
  let mask = B.of_int ~width:8 0b11110000 in
  check Alcotest.bool "matches" true
    (B.matches_ternary ~value ~mask (B.of_int ~width:8 0b10101111));
  check Alcotest.bool "mismatch" false
    (B.matches_ternary ~value ~mask (B.of_int ~width:8 0b10011111))

(* --- Bits: properties ---------------------------------------------------- *)

let bits_gen =
  QCheck.Gen.(
    int_range 1 130 >>= fun width ->
    let nbytes = (width + 7) / 8 in
    map (fun s -> B.create ~width s) (string_size ~gen:char (return nbytes)))

let bits_arb = QCheck.make bits_gen

let prop_concat_slice_inverse =
  QCheck.Test.make ~count:300 ~name:"slice of concat recovers parts"
    (QCheck.pair bits_arb bits_arb) (fun (a, b) ->
      let c = B.concat a b in
      B.equal (B.slice c ~off:0 ~len:(B.width a)) a
      && B.equal (B.slice c ~off:(B.width a) ~len:(B.width b)) b)

let prop_add_sub_inverse =
  QCheck.Test.make ~count:300 ~name:"(a + b) - b = a" (QCheck.pair bits_arb bits_arb)
    (fun (a, b) ->
      let b = B.resize b (B.width a) in
      B.equal (B.sub (B.add a b) b) a)

let prop_lognot_involutive =
  QCheck.Test.make ~count:300 ~name:"not (not a) = a" bits_arb (fun a ->
      B.equal (B.lognot (B.lognot a)) a)

let prop_hex_roundtrip =
  QCheck.Test.make ~count:300 ~name:"of_hex (to_hex a) = a" bits_arb (fun a ->
      B.equal (B.of_hex ~width:(B.width a) (B.to_hex a)) a)

let prop_init_get_bit =
  QCheck.Test.make ~count:300 ~name:"init f |> get_bit = f" bits_arb (fun a ->
      let b = B.init (B.width a) (fun i -> B.get_bit a i) in
      B.equal a b)

(* --- Bitfield ------------------------------------------------------------ *)

let test_bitfield_aligned () =
  let buf = Bytes.make 8 '\000' in
  Net.Bitfield.set buf ~off:16 (B.of_int ~width:16 0xBEEF);
  check Alcotest.int "aligned read" 0xBEEF (B.to_int (Net.Bitfield.get buf ~off:16 ~width:16));
  check Alcotest.int "neighbours untouched" 0 (B.to_int (Net.Bitfield.get buf ~off:0 ~width:16))

let test_bitfield_unaligned () =
  let buf = Bytes.make 4 '\000' in
  Net.Bitfield.set buf ~off:3 (B.of_int ~width:7 0x55);
  check Alcotest.int "unaligned roundtrip" 0x55
    (B.to_int (Net.Bitfield.get buf ~off:3 ~width:7));
  (* bits outside the field stay clear *)
  check Alcotest.int "prefix clear" 0 (B.to_int (Net.Bitfield.get buf ~off:0 ~width:3));
  check Alcotest.int "suffix clear" 0 (B.to_int (Net.Bitfield.get buf ~off:10 ~width:10))

let test_bitfield_bounds () =
  let buf = Bytes.make 2 '\000' in
  (match Net.Bitfield.get buf ~off:10 ~width:8 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "read past end should fail");
  match Net.Bitfield.set buf ~off:12 (B.of_int ~width:8 1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "write past end should fail"

let prop_bitfield_roundtrip =
  QCheck.Test.make ~count:300 ~name:"bitfield set/get roundtrip"
    QCheck.(triple (int_range 0 40) (int_range 1 64) (int_range 0 1000000))
    (fun (off, width, v) ->
      let buf = Bytes.make 16 '\xAA' in
      let value = B.of_int ~width (v land ((1 lsl min width 30) - 1)) in
      Net.Bitfield.set buf ~off value;
      B.equal (Net.Bitfield.get buf ~off ~width) value)

(* Packet-level set_bits/get_bits at arbitrary offsets and widths over a
   non-zero background, so stray writes outside the field would show. *)
let prop_packet_bits_roundtrip =
  QCheck.Test.make ~count:300 ~name:"packet set_bits/get_bits roundtrip"
    QCheck.(triple (int_range 0 60) (int_range 1 62) (int_range 0 max_int))
    (fun (off, width, v) ->
      let pkt = Net.Packet.create (String.make 16 '\xA5') in
      let value = B.of_int ~width (v land ((1 lsl min width 30) - 1)) in
      Net.Packet.set_bits pkt ~off value;
      B.equal (Net.Packet.get_bits pkt ~off ~width) value)

(* --- addresses ------------------------------------------------------------ *)

let test_mac () =
  let m = Net.Addr.Mac.of_string_exn "02:ab:cd:ef:00:11" in
  check Alcotest.string "roundtrip" "02:ab:cd:ef:00:11" (Net.Addr.Mac.to_string m);
  check Alcotest.int "bits width" 48 (B.width (Net.Addr.Mac.to_bits m));
  check Alcotest.string "bits roundtrip" (Net.Addr.Mac.to_string m)
    (Net.Addr.Mac.to_string (Net.Addr.Mac.of_bits (Net.Addr.Mac.to_bits m)))

let test_ipv4 () =
  let a = Net.Addr.Ipv4.of_string_exn "192.168.1.200" in
  check Alcotest.string "roundtrip" "192.168.1.200" (Net.Addr.Ipv4.to_string a);
  check Alcotest.int "bits" 32 (B.width (Net.Addr.Ipv4.to_bits a));
  match Net.Addr.Ipv4.of_string_exn "300.1.1.1" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "octet > 255 should fail"

let test_ipv6 () =
  let full = Net.Addr.Ipv6.of_string_exn "2001:db8:0:0:0:0:0:1" in
  let compressed = Net.Addr.Ipv6.of_string_exn "2001:db8::1" in
  check Alcotest.bool "compression" true (Net.Addr.Ipv6.equal full compressed);
  check Alcotest.string "to_string" "2001:db8:0:0:0:0:0:1" (Net.Addr.Ipv6.to_string full);
  check Alcotest.bool "::" true
    (Net.Addr.Ipv6.equal Net.Addr.Ipv6.zero (Net.Addr.Ipv6.of_string_exn "::"));
  check Alcotest.bool "leading ::" true
    (Net.Addr.Ipv6.equal
       (Net.Addr.Ipv6.of_string_exn "::5")
       (Net.Addr.Ipv6.of_string_exn "0:0:0:0:0:0:0:5"))

(* --- checksum -------------------------------------------------------------- *)

let test_checksum () =
  (* RFC 1071 example *)
  let data = "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  let c = Net.Checksum.compute data in
  let with_csum = data ^ String.init 2 (fun i -> Char.chr ((c lsr (8 * (1 - i))) land 0xFF)) in
  check Alcotest.bool "verifies" true (Net.Checksum.verify with_csum)

let test_ipv4_header_checksum () =
  let flow = Net.Flowgen.make_flow () in
  let hdr =
    Net.Proto.Ipv4.to_string
      (Net.Proto.Ipv4.make ~protocol:17 ~src:flow.Net.Flowgen.src_ip4
         ~dst:flow.Net.Flowgen.dst_ip4 ~payload_len:8 ())
  in
  check Alcotest.bool "ipv4 header checksum valid" true (Net.Checksum.verify hdr)

(* The Internet checksum is a one's-complement sum of 16-bit words, so it
   must be invariant under any permutation of those words. *)
let prop_checksum_word_permutation =
  let gen =
    QCheck.Gen.(
      int_range 1 32 >>= fun nwords ->
      string_size ~gen:char (return (2 * nwords)) >>= fun s ->
      let words = List.init nwords (fun i -> String.sub s (2 * i) 2) in
      map (fun shuffled -> (s, String.concat "" shuffled)) (shuffle_l words))
  in
  QCheck.Test.make ~count:300 ~name:"checksum invariant under 16-bit word permutation"
    (QCheck.make gen) (fun (s, permuted) ->
      Net.Checksum.compute s = Net.Checksum.compute permuted)

(* --- protocol codecs -------------------------------------------------------- *)

let test_eth_roundtrip () =
  let e =
    {
      Net.Proto.Eth.dst = Net.Addr.Mac.of_index 1;
      src = Net.Addr.Mac.of_index 2;
      ethertype = 0x0800;
    }
  in
  let e' = Net.Proto.Eth.of_string (Net.Proto.Eth.to_string e) in
  check Alcotest.bool "eth roundtrip" true (e = e')

let test_ipv4_roundtrip () =
  let h =
    Net.Proto.Ipv4.make ~dscp:10 ~ttl:33 ~protocol:6
      ~src:(Net.Addr.Ipv4.of_string_exn "10.0.0.1")
      ~dst:(Net.Addr.Ipv4.of_string_exn "10.0.0.2")
      ~payload_len:100 ()
  in
  let h' = Net.Proto.Ipv4.of_string (Net.Proto.Ipv4.to_string h) in
  check Alcotest.int "ttl" 33 h'.Net.Proto.Ipv4.ttl;
  check Alcotest.int "dscp" 10 h'.Net.Proto.Ipv4.dscp;
  check Alcotest.int "total_len" 120 h'.Net.Proto.Ipv4.total_len;
  check Alcotest.bool "addrs" true
    (Net.Addr.Ipv4.equal h.Net.Proto.Ipv4.src h'.Net.Proto.Ipv4.src
    && Net.Addr.Ipv4.equal h.Net.Proto.Ipv4.dst h'.Net.Proto.Ipv4.dst)

let test_ipv6_roundtrip () =
  let h =
    Net.Proto.Ipv6.make ~traffic_class:5 ~flow_label:0xABCDE ~hop_limit:7 ~next_header:43
      ~src:(Net.Addr.Ipv6.of_index 9) ~dst:(Net.Addr.Ipv6.of_index 10) ~payload_len:64 ()
  in
  let h' = Net.Proto.Ipv6.of_string (Net.Proto.Ipv6.to_string h) in
  check Alcotest.int "tc" 5 h'.Net.Proto.Ipv6.traffic_class;
  check Alcotest.int "flow" 0xABCDE h'.Net.Proto.Ipv6.flow_label;
  check Alcotest.int "hop" 7 h'.Net.Proto.Ipv6.hop_limit;
  check Alcotest.int "nh" 43 h'.Net.Proto.Ipv6.next_header

let test_srh_roundtrip () =
  let segs = [| Net.Addr.Ipv6.of_index 1; Net.Addr.Ipv6.of_index 2; Net.Addr.Ipv6.of_index 3 |] in
  let h = Net.Proto.Srh.make ~next_header:4 ~segments_left:2 ~segments:segs () in
  let h' = Net.Proto.Srh.of_string (Net.Proto.Srh.to_string h) in
  check Alcotest.int "segments_left" 2 h'.Net.Proto.Srh.segments_left;
  check Alcotest.int "last_entry" 2 h'.Net.Proto.Srh.last_entry;
  check Alcotest.int "segment count" 3 (Array.length h'.Net.Proto.Srh.segments);
  check Alcotest.bool "segments" true
    (Array.for_all2 Net.Addr.Ipv6.equal h.Net.Proto.Srh.segments h'.Net.Proto.Srh.segments)

let test_udp_tcp_roundtrip () =
  let u = Net.Proto.Udp.make ~src_port:1234 ~dst_port:80 ~payload_len:10 () in
  let u' = Net.Proto.Udp.of_string (Net.Proto.Udp.to_string u) in
  check Alcotest.int "udp ports" 1234 u'.Net.Proto.Udp.src_port;
  check Alcotest.int "udp len" 18 u'.Net.Proto.Udp.length;
  let t = Net.Proto.Tcp.make ~seq:77l ~src_port:5555 ~dst_port:443 () in
  let t' = Net.Proto.Tcp.of_string (Net.Proto.Tcp.to_string t) in
  check Alcotest.int "tcp dport" 443 t'.Net.Proto.Tcp.dst_port;
  check Alcotest.int32 "tcp seq" 77l t'.Net.Proto.Tcp.seq

(* Byte-identity of the codecs on generated traffic: every header a
   flowgen packet carries parses and re-serializes to the same bytes
   (the codecs recompute derived fields like the IPv4 checksum, so this
   also pins down that [make] and [to_string] agree). *)
let prop_proto_serialize_identity =
  QCheck.Test.make ~count:200 ~name:"serialize/deserialize identity on random packets"
    QCheck.(pair (int_range 0 10_000) (int_range 0 64))
    (fun (i, payload_len) ->
      let flow = Net.Flowgen.flow_of_index i in
      let s = Net.Packet.contents (Net.Flowgen.ipv4_udp ~payload_len flow) in
      let s6 = Net.Packet.contents (Net.Flowgen.ipv6_udp ~payload_len flow) in
      String.sub s 0 14 = Net.Proto.Eth.to_string (Net.Proto.Eth.of_string s)
      && String.sub s 14 20 = Net.Proto.Ipv4.to_string (Net.Proto.Ipv4.of_string ~off:14 s)
      && String.sub s 34 8 = Net.Proto.Udp.to_string (Net.Proto.Udp.of_string ~off:34 s)
      && String.sub s6 14 40 = Net.Proto.Ipv6.to_string (Net.Proto.Ipv6.of_string ~off:14 s6))

(* --- packet ---------------------------------------------------------------- *)

let test_packet_insert_remove () =
  let p = Net.Packet.create "ABCDEF" in
  Net.Packet.insert p ~off:2 "xy";
  check Alcotest.string "insert" "ABxyCDEF" (Net.Packet.contents p);
  Net.Packet.remove p ~off:2 ~n:2;
  check Alcotest.string "remove" "ABCDEF" (Net.Packet.contents p)

let test_packet_bits () =
  let p = Net.Packet.create (String.make 8 '\000') in
  Net.Packet.set_bits p ~off:12 (B.of_int ~width:8 0x5A);
  check Alcotest.int "bits roundtrip" 0x5A (B.to_int (Net.Packet.get_bits p ~off:12 ~width:8))

(* --- hdrdef + linkage -------------------------------------------------------- *)

let mini_registry () =
  let r = Net.Hdrdef.create_registry () in
  let eth =
    Net.Hdrdef.make ~name:"eth"
      ~fields:
        [
          { Net.Hdrdef.f_name = "dst"; f_width = 48 };
          { Net.Hdrdef.f_name = "src"; f_width = 48 };
          { Net.Hdrdef.f_name = "etype"; f_width = 16 };
        ]
      ~sel_fields:[ "etype" ]
  in
  let v4 =
    Net.Hdrdef.make ~name:"v4"
      ~fields:[ { Net.Hdrdef.f_name = "x"; f_width = 32 } ]
      ~sel_fields:[]
  in
  Net.Hdrdef.add_def r eth;
  Net.Hdrdef.add_def r v4;
  Net.Hdrdef.link r ~pre:"eth" ~tag:(B.of_int ~width:16 0x0800) ~next:"v4";
  r

let test_hdrdef_offsets () =
  let r = mini_registry () in
  let eth = Net.Hdrdef.find_exn r "eth" in
  check Alcotest.int "total width" 112 eth.Net.Hdrdef.width;
  check Alcotest.bool "field offset" true
    (Net.Hdrdef.field_offset eth "etype" = Some (96, 16));
  check Alcotest.bool "missing field" true (Net.Hdrdef.field_offset eth "zzz" = None)

let test_hdrdef_linkage () =
  let r = mini_registry () in
  check Alcotest.bool "next via tag" true
    (Net.Hdrdef.next_header r ~pre:"eth" ~tag:(B.of_int ~width:16 0x0800) = Some "v4");
  check Alcotest.bool "unknown tag" true
    (Net.Hdrdef.next_header r ~pre:"eth" ~tag:(B.of_int ~width:16 0x9999) = None);
  Net.Hdrdef.unlink r ~pre:"eth" ~next:"v4";
  check Alcotest.bool "after unlink" true
    (Net.Hdrdef.next_header r ~pre:"eth" ~tag:(B.of_int ~width:16 0x0800) = None)

let test_hdrdef_link_replace () =
  let r = mini_registry () in
  (* re-linking the same tag replaces the target *)
  let v6 =
    Net.Hdrdef.make ~name:"v6"
      ~fields:[ { Net.Hdrdef.f_name = "y"; f_width = 16 } ]
      ~sel_fields:[]
  in
  Net.Hdrdef.add_def r v6;
  Net.Hdrdef.link r ~pre:"eth" ~tag:(B.of_int ~width:16 0x0800) ~next:"v6";
  check Alcotest.bool "replaced" true
    (Net.Hdrdef.next_header r ~pre:"eth" ~tag:(B.of_int ~width:16 0x0800) = Some "v6")

let test_hdrdef_reachable () =
  let r = mini_registry () in
  check Alcotest.bool "reachable" true
    (List.sort compare (Net.Hdrdef.reachable r) = [ "eth"; "v4" ])

let test_hdrdef_link_errors () =
  let r = mini_registry () in
  (match Net.Hdrdef.link r ~pre:"v4" ~tag:(B.of_int ~width:8 1) ~next:"eth" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "link from selector-less header should fail");
  match Net.Hdrdef.link r ~pre:"eth" ~tag:(B.of_int ~width:16 1) ~next:"nope" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "link to unknown header should fail"

(* --- pmap -------------------------------------------------------------------- *)

let test_pmap_fields () =
  let r = mini_registry () in
  let eth = Net.Hdrdef.find_exn r "eth" in
  let pmap = Net.Pmap.create () in
  let pkt = Net.Packet.create (String.make 20 '\000') in
  Net.Pmap.add pmap ~def:eth ~bit_off:0;
  Net.Pmap.set_field pkt pmap ~hdr:"eth" ~field:"etype" (B.of_int ~width:16 0x86DD);
  check Alcotest.int "field write/read" 0x86DD
    (B.to_int (Net.Pmap.get_field_exn pkt pmap ~hdr:"eth" ~field:"etype"));
  Net.Pmap.invalidate pmap "eth";
  check Alcotest.bool "invalidate" false (Net.Pmap.is_valid pmap "eth");
  check Alcotest.bool "get after invalidate" true
    (Net.Pmap.get_field pkt pmap ~hdr:"eth" ~field:"etype" = None)

let test_pmap_shift () =
  let r = mini_registry () in
  let v4 = Net.Hdrdef.find_exn r "v4" in
  let pmap = Net.Pmap.create () in
  Net.Pmap.add pmap ~def:v4 ~bit_off:112;
  Net.Pmap.shift_from pmap ~bit_off:100 ~delta:64;
  match Net.Pmap.find pmap "v4" with
  | Some inst -> check Alcotest.int "shifted" 176 inst.Net.Pmap.bit_off
  | None -> Alcotest.fail "lost instance"

(* --- meta -------------------------------------------------------------------- *)

let test_meta () =
  let m = Net.Meta.create () in
  check Alcotest.int "intrinsic default" 0 (Net.Meta.get_int m "in_port");
  Net.Meta.declare m "foo" 12;
  Net.Meta.set_int m "foo" 5000;
  check Alcotest.int "declared set/get (12-bit wrap)" (5000 land 0xFFF) (Net.Meta.get_int m "foo");
  (match Net.Meta.get m "undeclared" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "undeclared get should fail");
  let c = Net.Meta.copy m in
  Net.Meta.set_int c "foo" 1;
  check Alcotest.int "copy is independent" (5000 land 0xFFF) (Net.Meta.get_int m "foo")

(* --- prebind: the id-keyed building blocks of template compilation ------------- *)

let test_intern () =
  let a = Net.Intern.id "test_prebind_alpha" in
  let b = Net.Intern.id "test_prebind_beta" in
  check Alcotest.bool "distinct names, distinct ids" true (a <> b);
  check Alcotest.int "id is stable" a (Net.Intern.id "test_prebind_alpha");
  check Alcotest.string "name roundtrip" "test_prebind_alpha" (Net.Intern.name a);
  check Alcotest.bool "mem after intern" true (Net.Intern.mem "test_prebind_alpha");
  check Alcotest.bool "mem before intern" false
    (Net.Intern.mem "test_prebind_never_interned")

let test_fieldref () =
  check (Alcotest.pair Alcotest.string Alcotest.string) "split" ("ipv4", "ttl")
    (Net.Fieldref.split "ipv4.ttl");
  check (Alcotest.option (Alcotest.pair Alcotest.string Alcotest.string))
    "split_opt none" None
    (Net.Fieldref.split_opt "nodot");
  check Alcotest.bool "is_meta" true (Net.Fieldref.is_meta "meta.l3_nexthop");
  check Alcotest.bool "is_meta hdr" false (Net.Fieldref.is_meta "ipv4.ttl");
  Alcotest.check_raises "malformed raises"
    (Invalid_argument "Fieldref.split: malformed field reference nodot") (fun () ->
      ignore (Net.Fieldref.split "nodot"))

let test_meta_layout () =
  let l = Net.Meta.Layout.create () in
  (* intrinsics occupy the documented fixed slots *)
  List.iteri
    (fun i (n, w) ->
      check (Alcotest.option Alcotest.int) ("slot of " ^ n) (Some i)
        (Net.Meta.Layout.slot l n);
      check Alcotest.int ("width of " ^ n) w (Net.Meta.Layout.width l i))
    Net.Meta.intrinsic;
  check (Alcotest.option Alcotest.int) "in_port slot constant" (Some Net.Meta.slot_in_port)
    (Net.Meta.Layout.slot l "in_port");
  check (Alcotest.option Alcotest.int) "switch_tag slot constant"
    (Some Net.Meta.slot_switch_tag)
    (Net.Meta.Layout.slot l "switch_tag");
  Net.Meta.Layout.declare l "probe_ctr" 32;
  let s = Option.get (Net.Meta.Layout.slot l "probe_ctr") in
  check Alcotest.int "declared width" 32 (Net.Meta.Layout.width l s);
  Net.Meta.Layout.declare l "probe_ctr" 16;
  check Alcotest.int "re-declare replaces width" 16 (Net.Meta.Layout.width l s);
  (* packets created in the shared layout see the field through both the
     slot and the name accessors *)
  let m = Net.Meta.create_in l in
  Net.Meta.set_int_slot m s 0x1234;
  check Alcotest.int "slot write, name read" 0x1234 (Net.Meta.get_int m "probe_ctr");
  Net.Meta.set_int m "probe_ctr" 7;
  check Alcotest.int "name write, slot read" 7 (Net.Meta.get_int_slot m s);
  (* a field declared after the meta was created is readable (zero) *)
  Net.Meta.Layout.declare l "late_field" 8;
  let late = Option.get (Net.Meta.Layout.slot l "late_field") in
  check Alcotest.int "late declare reads zero" 0 (Net.Meta.get_int_slot m late);
  Net.Meta.set_int_slot m late 5;
  check Alcotest.int "late declare writable" 5 (Net.Meta.get_int m "late_field");
  (* bindings are sorted by name *)
  let names = List.map fst (Net.Meta.bindings m) in
  check Alcotest.bool "bindings sorted" true (names = List.sort compare names)

let eth_def =
  Net.Hdrdef.make ~name:"zz_eth_test"
    ~fields:
      [
        { Net.Hdrdef.f_name = "dst"; f_width = 48 };
        { Net.Hdrdef.f_name = "src"; f_width = 48 };
        { Net.Hdrdef.f_name = "ethertype"; f_width = 16 };
      ]
    ~sel_fields:[ "ethertype" ]

let aa_def =
  Net.Hdrdef.make ~name:"aa_hdr_test"
    ~fields:[ { Net.Hdrdef.f_name = "v"; f_width = 8 } ]
    ~sel_fields:[]

let test_pmap_ids () =
  let pm = Net.Pmap.create () in
  Net.Pmap.add pm ~def:eth_def ~bit_off:0;
  Net.Pmap.add pm ~def:aa_def ~bit_off:112;
  check (Alcotest.list Alcotest.string) "names sorted" [ "aa_hdr_test"; "zz_eth_test" ]
    (Net.Pmap.names pm);
  let pkt = Net.Packet.create (String.make 32 '\xAB') in
  let hid = eth_def.Net.Hdrdef.id in
  check Alcotest.bool "is_valid_id" true (Net.Pmap.is_valid_id pm hid);
  (* id accessors agree with the string path *)
  let off, width = Net.Hdrdef.field_offset_exn eth_def "ethertype" in
  let via_id = Net.Pmap.get_field_id pkt pm ~hid ~off ~width in
  let via_name = Net.Pmap.get_field pkt pm ~hdr:"zz_eth_test" ~field:"ethertype" in
  check Alcotest.bool "get agrees" true (via_id = via_name);
  let v = B.of_int ~width 0x86DD in
  check Alcotest.bool "set_field_id writes" true (Net.Pmap.set_field_id pkt pm ~hid ~off v);
  check Alcotest.bool "write visible" true
    (Net.Pmap.get_field pkt pm ~hdr:"zz_eth_test" ~field:"ethertype"
    = Some (B.of_int ~width 0x86DD));
  Net.Pmap.invalidate_id pm hid;
  check Alcotest.bool "invalidate_id" false (Net.Pmap.is_valid_id pm hid);
  check Alcotest.bool "set on invalid returns false" false
    (Net.Pmap.set_field_id pkt pm ~hid ~off v);
  check (Alcotest.list Alcotest.string) "names excludes invalid" [ "aa_hdr_test" ]
    (Net.Pmap.names pm)

(* --- flowgen ------------------------------------------------------------------- *)

let test_flowgen_shapes () =
  let flow = Net.Flowgen.make_flow () in
  let v4 = Net.Flowgen.ipv4_udp flow in
  let eth = Net.Proto.Eth.of_string (Net.Packet.contents v4) in
  check Alcotest.int "v4 ethertype" Net.Proto.ethertype_ipv4 eth.Net.Proto.Eth.ethertype;
  let ip = Net.Proto.Ipv4.of_string ~off:14 (Net.Packet.contents v4) in
  check Alcotest.int "v4 proto udp" Net.Proto.proto_udp ip.Net.Proto.Ipv4.protocol;
  let v6 = Net.Flowgen.ipv6_udp flow in
  let eth6 = Net.Proto.Eth.of_string (Net.Packet.contents v6) in
  check Alcotest.int "v6 ethertype" Net.Proto.ethertype_ipv6 eth6.Net.Proto.Eth.ethertype

let test_flowgen_srv6 () =
  let segs = Array.init 3 Net.Addr.Ipv6.of_index in
  let p = Net.Flowgen.srv6_ipv4 ~segments:segs ~segments_left:1 (Net.Flowgen.make_flow ()) in
  let s = Net.Packet.contents p in
  let ip6 = Net.Proto.Ipv6.of_string ~off:14 s in
  check Alcotest.int "outer nh is SRH" Net.Proto.next_header_srh ip6.Net.Proto.Ipv6.next_header;
  check Alcotest.bool "outer dst = active segment" true
    (Net.Addr.Ipv6.equal ip6.Net.Proto.Ipv6.dst segs.(1));
  let srh = Net.Proto.Srh.of_string ~off:(14 + 40) s in
  check Alcotest.int "srh sl" 1 srh.Net.Proto.Srh.segments_left;
  check Alcotest.int "srh inner v4" Net.Proto.next_header_ipv4 srh.Net.Proto.Srh.next_header;
  (* the inner IPv4 packet sits right after the SRH *)
  let inner = Net.Proto.Ipv4.of_string ~off:(14 + 40 + Net.Proto.Srh.size srh) s in
  check Alcotest.int "inner proto" Net.Proto.proto_udp inner.Net.Proto.Ipv4.protocol

let test_flowgen_deterministic () =
  let a = Net.Flowgen.mixed_stream ~seed:1 ~n:20 ~nflows:4 () in
  let b = Net.Flowgen.mixed_stream ~seed:1 ~n:20 ~nflows:4 () in
  check Alcotest.bool "same seed same stream" true
    (List.for_all2
       (fun x y -> Net.Packet.contents x = Net.Packet.contents y)
       a b)

let () =
  Alcotest.run "net"
    [
      ( "bits",
        [
          Alcotest.test_case "of_int" `Quick test_bits_of_int;
          Alcotest.test_case "normalized equality" `Quick test_bits_normalized_equal;
          Alcotest.test_case "zero/ones" `Quick test_bits_zero_ones;
          Alcotest.test_case "get_bit" `Quick test_bits_get_bit;
          Alcotest.test_case "concat/slice" `Quick test_bits_concat_slice;
          Alcotest.test_case "arith" `Quick test_bits_arith;
          Alcotest.test_case "wide arith" `Quick test_bits_wide_arith;
          Alcotest.test_case "logic" `Quick test_bits_logic;
          Alcotest.test_case "resize" `Quick test_bits_resize;
          Alcotest.test_case "compare" `Quick test_bits_compare_orders_numerically;
          Alcotest.test_case "ternary" `Quick test_bits_ternary_match;
          QCheck_alcotest.to_alcotest prop_concat_slice_inverse;
          QCheck_alcotest.to_alcotest prop_add_sub_inverse;
          QCheck_alcotest.to_alcotest prop_lognot_involutive;
          QCheck_alcotest.to_alcotest prop_hex_roundtrip;
          QCheck_alcotest.to_alcotest prop_init_get_bit;
        ] );
      ( "bitfield",
        [
          Alcotest.test_case "aligned" `Quick test_bitfield_aligned;
          Alcotest.test_case "unaligned" `Quick test_bitfield_unaligned;
          Alcotest.test_case "bounds" `Quick test_bitfield_bounds;
          QCheck_alcotest.to_alcotest prop_bitfield_roundtrip;
        ] );
      ( "addr",
        [
          Alcotest.test_case "mac" `Quick test_mac;
          Alcotest.test_case "ipv4" `Quick test_ipv4;
          Alcotest.test_case "ipv6" `Quick test_ipv6;
        ] );
      ( "checksum",
        [
          Alcotest.test_case "rfc1071" `Quick test_checksum;
          Alcotest.test_case "ipv4 header" `Quick test_ipv4_header_checksum;
          QCheck_alcotest.to_alcotest prop_checksum_word_permutation;
        ] );
      ( "proto",
        [
          Alcotest.test_case "eth" `Quick test_eth_roundtrip;
          Alcotest.test_case "ipv4" `Quick test_ipv4_roundtrip;
          Alcotest.test_case "ipv6" `Quick test_ipv6_roundtrip;
          Alcotest.test_case "srh" `Quick test_srh_roundtrip;
          Alcotest.test_case "udp/tcp" `Quick test_udp_tcp_roundtrip;
          QCheck_alcotest.to_alcotest prop_proto_serialize_identity;
        ] );
      ( "packet",
        [
          Alcotest.test_case "insert/remove" `Quick test_packet_insert_remove;
          Alcotest.test_case "bits" `Quick test_packet_bits;
          QCheck_alcotest.to_alcotest prop_packet_bits_roundtrip;
        ] );
      ( "hdrdef",
        [
          Alcotest.test_case "offsets" `Quick test_hdrdef_offsets;
          Alcotest.test_case "linkage" `Quick test_hdrdef_linkage;
          Alcotest.test_case "link replace" `Quick test_hdrdef_link_replace;
          Alcotest.test_case "reachable" `Quick test_hdrdef_reachable;
          Alcotest.test_case "link errors" `Quick test_hdrdef_link_errors;
        ] );
      ( "pmap",
        [
          Alcotest.test_case "fields" `Quick test_pmap_fields;
          Alcotest.test_case "shift" `Quick test_pmap_shift;
        ] );
      ("meta", [ Alcotest.test_case "basics" `Quick test_meta ]);
      ( "prebind",
        [
          Alcotest.test_case "intern" `Quick test_intern;
          Alcotest.test_case "fieldref" `Quick test_fieldref;
          Alcotest.test_case "meta layout" `Quick test_meta_layout;
          Alcotest.test_case "pmap ids" `Quick test_pmap_ids;
        ] );
      ( "flowgen",
        [
          Alcotest.test_case "shapes" `Quick test_flowgen_shapes;
          Alcotest.test_case "srv6" `Quick test_flowgen_srv6;
          Alcotest.test_case "deterministic" `Quick test_flowgen_deterministic;
        ] );
    ]
