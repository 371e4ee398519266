(* Tests for the match-table library: TCAM and the unified table with its
   four engines (exact / lpm / ternary / hash), checked against naive
   reference implementations with property tests. *)

module B = Net.Bits
module K = Table.Key

let check = Alcotest.check

(* --- LPM engine: a Table over the Net.Lpm trie --------------------------- *)

(* Single-field LPM tables exercise the engine's Bits -> raw-key
   conversion, its replace/remove bookkeeping and the entry list next to
   the trie; [Net.Lpm] itself is covered by test_lpm.ml. *)

let ip v = B.of_int ~width:32 v

let lpm_only ?(width = 32) () =
  Table.create
    {
      Table.name = "t_lpm_only";
      fields = [ { K.kf_ref = "h.dst"; kf_width = width; kf_kind = K.Lpm } ];
      size = 1024;
    }

let lpm_add t prefix plen action =
  Table.insert t ~matches:[ K.M_lpm (prefix, plen) ] ~action ~args:[] ()

let lpm_action t key = Option.map (fun e -> e.Table.action) (Table.lookup t [ key ])

let test_lpm_basic () =
  let t = lpm_only () in
  lpm_add t (ip 0x0A000000) 8 "10/8";
  lpm_add t (ip 0x0A010000) 16 "10.1/16";
  lpm_add t (ip 0x0A010200) 24 "10.1.2/24";
  check (Alcotest.option Alcotest.string) "most specific wins" (Some "10.1.2/24")
    (lpm_action t (ip 0x0A010203));
  check (Alcotest.option Alcotest.string) "middle prefix" (Some "10.1/16")
    (lpm_action t (ip 0x0A01FF00));
  check (Alcotest.option Alcotest.string) "short prefix" (Some "10/8")
    (lpm_action t (ip 0x0AFFFFFF));
  check (Alcotest.option Alcotest.string) "miss" None (lpm_action t (ip 0x0B000000))

let test_lpm_default_route () =
  let t = lpm_only () in
  lpm_add t (ip 0) 0 "default";
  check (Alcotest.option Alcotest.string) "plen 0 matches all" (Some "default")
    (lpm_action t (ip 0xDEADBEEF))

let test_lpm_remove_and_prune () =
  let t = lpm_only () in
  lpm_add t (ip 0x0A000000) 8 "a";
  lpm_add t (ip 0x0A010000) 16 "b";
  check Alcotest.int "count" 2 (Table.entry_count t);
  check Alcotest.bool "remove hits" true
    (Table.delete t [ K.M_lpm (ip 0x0A010000, 16) ]);
  check Alcotest.bool "remove idempotent" false
    (Table.delete t [ K.M_lpm (ip 0x0A010000, 16) ]);
  check Alcotest.int "count after" 1 (Table.entry_count t);
  check (Alcotest.option Alcotest.string) "fallback after remove" (Some "a")
    (lpm_action t (ip 0x0A010203))

(* naive reference LPM *)
let naive_lpm entries key =
  List.fold_left
    (fun best (prefix, plen, v) ->
      let matches =
        plen = 0
        || B.equal (B.slice prefix ~off:0 ~len:plen) (B.slice key ~off:0 ~len:plen)
      in
      match (matches, best) with
      | false, _ -> best
      | true, Some (bl, _) when bl >= plen -> best
      | true, _ -> Some (plen, v))
    None entries
  |> Option.map snd

(* 24-bit keys: an odd width, so the raw key is not byte-aligned. *)
let prop_lpm_vs_naive =
  QCheck.Test.make ~count:200 ~name:"lpm trie = naive reference"
    QCheck.(pair (small_list (pair (int_range 0 0xFFFFFF) (int_range 0 24))) (int_range 0 0xFFFFFF))
    (fun (raw_entries, raw_key) ->
      let t = lpm_only ~width:24 () in
      (* canonical prefixes (host bits cleared), so the entry list and
         the trie agree on which inserts replace *)
      let entries =
        List.mapi
          (fun i (v, plen) ->
            let prefix = B.of_int ~width:24 (v land lnot ((1 lsl (24 - plen)) - 1)) in
            (prefix, plen, string_of_int i))
          raw_entries
      in
      let seen = Hashtbl.create 8 in
      let entries =
        List.filter
          (fun (p, plen, _) ->
            let k = (B.to_hex p, plen) in
            if Hashtbl.mem seen k then false
            else begin
              Hashtbl.add seen k ();
              true
            end)
          entries
      in
      List.iter (fun (p, plen, v) -> lpm_add t p plen v) entries;
      let key = B.of_int ~width:24 raw_key in
      lpm_action t key = naive_lpm entries key)

(* --- TCAM ---------------------------------------------------------------- *)

let test_tcam_priority () =
  let t = Table.Tcam.create () in
  let w v = B.of_int ~width:8 v in
  Table.Tcam.insert t ~value:(w 0xF0) ~mask:(w 0xF0) ~priority:1 "low";
  Table.Tcam.insert t ~value:(w 0xFF) ~mask:(w 0xFF) ~priority:10 "high";
  check (Alcotest.option Alcotest.string) "priority wins" (Some "high")
    (Table.Tcam.lookup t (w 0xFF));
  check (Alcotest.option Alcotest.string) "fallback" (Some "low") (Table.Tcam.lookup t (w 0xF3));
  check (Alcotest.option Alcotest.string) "miss" None (Table.Tcam.lookup t (w 0x0F))

let test_tcam_stable_order () =
  let t = Table.Tcam.create () in
  let w v = B.of_int ~width:8 v in
  Table.Tcam.insert t ~value:(w 0x00) ~mask:(w 0x00) ~priority:5 "first";
  Table.Tcam.insert t ~value:(w 0x01) ~mask:(w 0x00) ~priority:5 "second";
  check (Alcotest.option Alcotest.string) "equal priority: insertion order" (Some "first")
    (Table.Tcam.lookup t (w 0x42))

let test_tcam_remove () =
  let t = Table.Tcam.create () in
  let w v = B.of_int ~width:8 v in
  Table.Tcam.insert t ~value:(w 1) ~mask:(w 0xFF) ~priority:0 "x";
  check Alcotest.bool "removed" true (Table.Tcam.remove t ~value:(w 1) ~mask:(w 0xFF));
  check Alcotest.int "empty" 0 (Table.Tcam.count t)

(* --- unified table: exact engine ------------------------------------------ *)

let exact_spec =
  {
    Table.name = "t_exact";
    fields =
      [
        { K.kf_ref = "meta.a"; kf_width = 16; kf_kind = K.Exact };
        { K.kf_ref = "h.b"; kf_width = 8; kf_kind = K.Exact };
      ];
    size = 8;
  }

let test_exact_table () =
  let t = Table.create exact_spec in
  Table.insert t
    ~matches:[ K.M_exact (B.of_int ~width:16 7); K.M_exact (B.of_int ~width:8 9) ]
    ~action:"1" ~args:[ B.of_int ~width:16 42 ] ();
  (match Table.lookup t [ B.of_int ~width:16 7; B.of_int ~width:8 9 ] with
  | Some e ->
    check Alcotest.string "action" "1" e.Table.action;
    check Alcotest.int "hits" 1 e.Table.hits
  | None -> Alcotest.fail "expected hit");
  check Alcotest.bool "miss" true (Table.lookup t [ B.of_int ~width:16 7; B.of_int ~width:8 8 ] = None);
  (* replace on same key *)
  Table.insert t
    ~matches:[ K.M_exact (B.of_int ~width:16 7); K.M_exact (B.of_int ~width:8 9) ]
    ~action:"2" ~args:[] ();
  check Alcotest.int "replace keeps count" 1 (Table.entry_count t);
  (match Table.lookup t [ B.of_int ~width:16 7; B.of_int ~width:8 9 ] with
  | Some e -> check Alcotest.string "replaced" "2" e.Table.action
  | None -> Alcotest.fail "hit expected");
  check Alcotest.bool "delete" true
    (Table.delete t [ K.M_exact (B.of_int ~width:16 7); K.M_exact (B.of_int ~width:8 9) ]);
  check Alcotest.int "empty" 0 (Table.entry_count t)

let test_table_capacity () =
  let t = Table.create { exact_spec with Table.size = 2 } in
  let add i =
    Table.insert t
      ~matches:[ K.M_exact (B.of_int ~width:16 i); K.M_exact (B.of_int ~width:8 i) ]
      ~action:"1" ~args:[] ()
  in
  add 1;
  add 2;
  match add 3 with
  | exception Table.Full _ -> ()
  | _ -> Alcotest.fail "should be full"

let test_table_key_validation () =
  let t = Table.create exact_spec in
  (match Table.lookup t [ B.of_int ~width:16 1 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "wrong arity should fail");
  match Table.lookup t [ B.of_int ~width:8 1; B.of_int ~width:8 1 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "wrong width should fail"

(* --- unified table: lpm engine --------------------------------------------- *)

let lpm_spec =
  {
    Table.name = "t_lpm";
    fields =
      [
        { K.kf_ref = "meta.vrf"; kf_width = 16; kf_kind = K.Exact };
        { K.kf_ref = "h.dst"; kf_width = 32; kf_kind = K.Lpm };
      ];
    size = 64;
  }

let test_lpm_table () =
  let t = Table.create lpm_spec in
  let vrf = B.of_int ~width:16 10 in
  Table.insert t
    ~matches:[ K.M_exact vrf; K.M_lpm (ip 0x0A000000, 8) ]
    ~action:"1" ~args:[] ();
  Table.insert t
    ~matches:[ K.M_exact vrf; K.M_lpm (ip 0x0A010000, 16) ]
    ~action:"2" ~args:[] ();
  let action key =
    Option.map (fun e -> e.Table.action) (Table.lookup t [ vrf; key ])
  in
  check (Alcotest.option Alcotest.string) "specific" (Some "2") (action (ip 0x0A010005));
  check (Alcotest.option Alcotest.string) "general" (Some "1") (action (ip 0x0A990005));
  check (Alcotest.option Alcotest.string) "other vrf misses" None
    (Option.map (fun e -> e.Table.action)
       (Table.lookup t [ B.of_int ~width:16 11; ip 0x0A010005 ]))

(* --- unified table: ternary engine ----------------------------------------- *)

let ternary_spec =
  {
    Table.name = "t_tern";
    fields = [ { K.kf_ref = "h.x"; kf_width = 16; kf_kind = K.Ternary } ];
    size = 16;
  }

let test_ternary_table () =
  let t = Table.create ternary_spec in
  let w v = B.of_int ~width:16 v in
  Table.insert t ~priority:5
    ~matches:[ K.M_ternary (w 0x1200, w 0xFF00) ]
    ~action:"hi" ~args:[] ();
  Table.insert t ~priority:1 ~matches:[ K.M_any ] ~action:"any" ~args:[] ();
  let action key = Option.map (fun e -> e.Table.action) (Table.lookup t [ w key ]) in
  check (Alcotest.option Alcotest.string) "masked" (Some "hi") (action 0x12FF);
  check (Alcotest.option Alcotest.string) "wildcard" (Some "any") (action 0x3456)

(* --- unified table: hash engine -------------------------------------------- *)

let hash_spec =
  {
    Table.name = "t_hash";
    fields =
      [
        { K.kf_ref = "meta.grp"; kf_width = 8; kf_kind = K.Exact };
        { K.kf_ref = "h.flow"; kf_width = 32; kf_kind = K.Hash };
      ];
    size = 16;
  }

let test_hash_table_selection () =
  let t = Table.create hash_spec in
  let grp = B.of_int ~width:8 1 in
  (* three members of group 1, one of group 2 *)
  List.iter
    (fun name ->
      Table.insert t ~matches:[ K.M_exact grp; K.M_any ] ~action:name ~args:[] ())
    [ "m0"; "m1"; "m2" ];
  Table.insert t
    ~matches:[ K.M_exact (B.of_int ~width:8 2); K.M_any ]
    ~action:"other" ~args:[] ();
  check Alcotest.int "members kept (no dedup in hash engine)" 4 (Table.entry_count t);
  (* selection is deterministic per flow and restricted to the group *)
  let used = Hashtbl.create 4 in
  for flow = 0 to 199 do
    match Table.lookup t [ grp; B.of_int ~width:32 flow ] with
    | Some e ->
      if e.Table.action = "other" then Alcotest.fail "picked entry from wrong group";
      Hashtbl.replace used e.Table.action ();
      (* determinism *)
      (match Table.lookup t [ grp; B.of_int ~width:32 flow ] with
      | Some e' -> check Alcotest.string "stable" e.Table.action e'.Table.action
      | None -> Alcotest.fail "second lookup missed")
    | None -> Alcotest.fail "hash lookup should hit"
  done;
  check Alcotest.int "all members used" 3 (Hashtbl.length used)

let test_hash_table_miss () =
  let t = Table.create hash_spec in
  check Alcotest.bool "empty group misses" true
    (Table.lookup t [ B.of_int ~width:8 9; B.of_int ~width:32 1 ] = None)

(* --- default actions --------------------------------------------------------- *)

let test_default_action () =
  let t = Table.create exact_spec in
  Table.set_default t "fallback" [ B.of_int ~width:8 1 ];
  match Table.apply t [ B.of_int ~width:16 1; B.of_int ~width:8 1 ] with
  | Some o ->
    check Alcotest.string "default action" "fallback" o.Table.o_action;
    check Alcotest.bool "not a hit" false o.Table.o_hit
  | None -> Alcotest.fail "default should apply"

(* --- property: exact engine vs assoc list ------------------------------------ *)

let prop_exact_vs_naive =
  QCheck.Test.make ~count:200 ~name:"exact table = assoc reference"
    QCheck.(pair (small_list (pair (int_range 0 50) (int_range 0 5))) (small_list (int_range 0 50)))
    (fun (inserts, lookups) ->
      let t =
        Table.create
          {
            Table.name = "p";
            fields = [ { K.kf_ref = "k"; kf_width = 16; kf_kind = K.Exact } ];
            size = 1000;
          }
      in
      let reference = Hashtbl.create 16 in
      List.iter
        (fun (k, a) ->
          let action = string_of_int a in
          Table.insert t ~matches:[ K.M_exact (B.of_int ~width:16 k) ] ~action ~args:[] ();
          Hashtbl.replace reference k action)
        inserts;
      List.for_all
        (fun k ->
          let got =
            Option.map (fun e -> e.Table.action) (Table.lookup t [ B.of_int ~width:16 k ])
          in
          got = Hashtbl.find_opt reference k)
        lookups)

(* --- stats --------------------------------------------------------------------- *)

let test_stats () =
  let t = Table.create exact_spec in
  Table.insert t
    ~matches:[ K.M_exact (B.of_int ~width:16 1); K.M_exact (B.of_int ~width:8 1) ]
    ~action:"1" ~args:[] ();
  ignore (Table.lookup t [ B.of_int ~width:16 1; B.of_int ~width:8 1 ]);
  ignore (Table.lookup t [ B.of_int ~width:16 2; B.of_int ~width:8 2 ]);
  let lookups, hits = Table.stats t in
  check Alcotest.int "lookups" 2 lookups;
  check Alcotest.int "hits" 1 hits

let () =
  Alcotest.run "table"
    [
      ( "lpm-trie",
        [
          Alcotest.test_case "basic" `Quick test_lpm_basic;
          Alcotest.test_case "default route" `Quick test_lpm_default_route;
          Alcotest.test_case "remove/prune" `Quick test_lpm_remove_and_prune;
          QCheck_alcotest.to_alcotest prop_lpm_vs_naive;
        ] );
      ( "tcam",
        [
          Alcotest.test_case "priority" `Quick test_tcam_priority;
          Alcotest.test_case "stable order" `Quick test_tcam_stable_order;
          Alcotest.test_case "remove" `Quick test_tcam_remove;
        ] );
      ( "table",
        [
          Alcotest.test_case "exact engine" `Quick test_exact_table;
          Alcotest.test_case "capacity" `Quick test_table_capacity;
          Alcotest.test_case "key validation" `Quick test_table_key_validation;
          Alcotest.test_case "lpm engine" `Quick test_lpm_table;
          Alcotest.test_case "ternary engine" `Quick test_ternary_table;
          Alcotest.test_case "hash engine" `Quick test_hash_table_selection;
          Alcotest.test_case "hash miss" `Quick test_hash_table_miss;
          Alcotest.test_case "default action" `Quick test_default_action;
          Alcotest.test_case "stats" `Quick test_stats;
          QCheck_alcotest.to_alcotest prop_exact_vs_naive;
        ] );
    ]
