(* Synapse-style table virtualization: the engine's hot tier.

   Four layers under test:

   - the tier itself (LRU order, promotion-on-miss, pinning, the
     [tier_stats] counters the telemetry mirrors);
   - the pool's best-effort allocation path: a table declared at 4x the
     blocks the pool can grant boots virtualized instead of failing, and
     still accepts its full declared population (the headline acceptance
     scenario);
   - the controller surface ([virtualize]/[devirtualize]/[pin] commands,
     protected-prefix auto-pinning, the [show_virt] report);
   - observational equivalence: a virtualized device trio (flat /
     interpreter / traced interpreter) stays in exact lockstep internally
     and agrees with a fully-resident twin on ports, metadata and bytes —
     under runtime table churn and forced whole-tier evictions. *)

module K = Table.Key
module B = Net.Bits

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* --- tier unit tests ----------------------------------------------------- *)

(* One-field exact table: resolutions are 1:1 with entries, so tier
   arithmetic is exact. *)
let exact_spec ?(size = 64) name =
  {
    Table.name;
    fields = [ { K.kf_ref = "meta.k"; kf_width = 16; kf_kind = K.Exact } ];
    size;
  }

let key i = [ B.of_int ~width:16 i ]

let populate t n =
  for i = 0 to n - 1 do
    Table.insert t
      ~matches:[ K.M_exact (B.of_int ~width:16 i) ]
      ~action:"act"
      ~args:[ B.of_int ~width:8 (i land 0xFF) ]
      ()
  done

let ts t =
  match Table.tier_stats t with
  | Some s -> s
  | None -> Alcotest.fail "table is not virtualized"

let test_tier_lru () =
  let t = Table.create (exact_spec "lru") in
  populate t 8;
  Table.virtualize t ~capacity:4;
  check bool "virtualized" true (Table.virtualized t);
  (* Cold tier: the first lookup of each key misses and promotes. *)
  for i = 0 to 3 do
    ignore (Table.lookup t (key i));
    check bool "cold lookup misses the tier" true (Table.tier_missed t)
  done;
  let s = ts t in
  check int "resident after fill" 4 s.Table.ts_resident;
  check int "four promotions" 4 s.Table.ts_promotions;
  check int "no hits yet" 0 s.Table.ts_hits;
  (* A warm hit refreshes recency... *)
  ignore (Table.lookup t (key 0));
  check bool "warm lookup hits" false (Table.tier_missed t);
  (* ...so filling the free slot created by evicting the LRU (key 1,
     since key 0 was just touched) keeps key 0 resident. *)
  ignore (Table.lookup t (key 4));
  check bool "new key misses" true (Table.tier_missed t);
  ignore (Table.lookup t (key 0));
  check bool "refreshed key survived the eviction" false (Table.tier_missed t);
  ignore (Table.lookup t (key 1));
  check bool "LRU key was evicted" true (Table.tier_missed t);
  let s = ts t in
  check bool "evictions counted" true (s.Table.ts_evictions >= 2);
  check int "residency capped" 4 s.Table.ts_resident

let test_tier_pin () =
  let t = Table.create (exact_spec "pin") in
  populate t 8;
  Table.virtualize t ~capacity:2;
  (* Pin key 5 (exact prefix over the one key field), then promote it. *)
  check bool "pin accepted" true
    (Table.pin t ~field:"meta.k" ~bits:(B.of_int ~width:16 5) ~plen:16);
  ignore (Table.lookup t (key 5));
  (* Thrash every other key through the remaining slot. *)
  for i = 0 to 4 do
    ignore (Table.lookup t (key i))
  done;
  ignore (Table.lookup t (key 5));
  check bool "pinned key never evicted" false (Table.tier_missed t);
  let s = ts t in
  check int "one pinned resident" 1 s.Table.ts_pinned;
  (* Pinning is refused on a field outside the key and without a tier. *)
  check bool "unknown field refused" false
    (Table.pin t ~field:"meta.nope" ~bits:(B.of_int ~width:16 0) ~plen:0);
  Table.devirtualize t;
  check bool "pin on resident table refused" false
    (Table.pin t ~field:"meta.k" ~bits:(B.of_int ~width:16 5) ~plen:16)

let test_tier_shrink_evicts () =
  let t = Table.create (exact_spec "shrink") in
  populate t 8;
  Table.virtualize t ~capacity:8;
  for i = 0 to 7 do
    ignore (Table.lookup t (key i))
  done;
  check int "fully resident" 8 (ts t).Table.ts_resident;
  (* Re-virtualizing smaller evicts down — the forced-eviction knob the
     equivalence property leans on. *)
  Table.virtualize t ~capacity:3;
  let s = ts t in
  check int "evicted down to the new capacity" 3 s.Table.ts_resident;
  check int "capacity recorded" 3 s.Table.ts_capacity;
  check bool "evictions counted" true (s.Table.ts_evictions >= 5);
  (* Forwarding authority is unaffected: every entry still resolves. *)
  for i = 0 to 7 do
    match Table.lookup t (key i) with
    | Some e -> check Alcotest.string "action survives eviction" "act" e.Table.action
    | None -> Alcotest.failf "entry %d lost by eviction" i
  done

(* --- best-effort pool allocation: the 4x overflow scenario ---------------- *)

(* A pool that can grant 64 entries of residency faces a table declared
   at 256: the device must boot it virtualized at the granted depth, the
   full declared population must insert, and every entry must resolve
   (escalating on tier misses) with live telemetry. *)
let test_overflow_4x () =
  let pool = Mem.Pool.create ~nblocks:4 ~block_width:128 ~block_depth:16 ~nclusters:1 in
  let tel = Telemetry.create () in
  let device = Ipsa.Device.create ~pool ~telemetry:tel () in
  let ct =
    {
      Ipsa.Template.ct_name = "big";
      ct_fields = [ { K.kf_ref = "meta.k"; kf_width = 16; kf_kind = K.Exact } ];
      ct_size = 256;
      ct_entry_width = 64;
    }
  in
  (match
     Ipsa.Device.apply_patch device
       { Ipsa.Config.ops = [ Ipsa.Config.Alloc_table (ct, None) ] }
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "alloc: %s" e);
  let t =
    match Ipsa.Device.find_table device "big" with
    | Some t -> t
    | None -> Alcotest.fail "table not created"
  in
  check bool "short grant boots virtualized" true (Table.virtualized t);
  check int "hot tier sized to the granted depth" 64 (ts t).Table.ts_capacity;
  (* The full declared population inserts despite 4x overflow. *)
  populate t 256;
  check int "all 256 entries inserted" 256 (Table.entry_count t);
  (* Every entry resolves; the cold majority escalates. *)
  for i = 0 to 255 do
    if Table.lookup t (key i) = None then Alcotest.failf "entry %d unresolvable" i
  done;
  let s = ts t in
  check bool "misses recorded" true (s.Table.ts_misses >= 256 - 64);
  check bool "residency within grant" true (s.Table.ts_resident <= 64);
  (* The device telemetry mirror publishes the tier. *)
  Ipsa.Device.refresh_telemetry device;
  let labels = [ ("table", "big") ] in
  check int "resident gauge" s.Table.ts_resident
    (Telemetry.Gauge.value (Telemetry.gauge ~labels tel "table.tier_resident"));
  check int "miss counter" s.Table.ts_misses
    (Telemetry.Counter.value (Telemetry.counter ~labels tel "table.tier_misses"))

(* --- controller surface --------------------------------------------------- *)

let boot_session () =
  let session, device = Harness.Cases.boot_base () in
  (session, device)

let run_ok session cmd =
  match Controller.Session.run_script session cmd with
  | Ok out -> out
  | Error e -> Alcotest.failf "%s: %s" cmd e

let test_session_commands () =
  let session, device = boot_session () in
  ignore (run_ok session "virtualize ipv4_host --capacity 1");
  let t = Option.get (Ipsa.Device.find_table device "ipv4_host") in
  check bool "command virtualized the table" true (Table.virtualized t);
  ignore (run_ok session "pin ipv4_host 10.1.0.1/32");
  check int "pin accepted" 0 (ts t).Table.ts_pin_blocked;
  (match Controller.Session.run_script session "pin ipv4_lpm 10.0.0.0/8" with
  | Ok _ -> Alcotest.fail "pin on a resident table must fail"
  | Error _ -> ());
  let report = String.concat "\n" (run_ok session "show_virt") in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m = 0 || go 0
  in
  check bool "show_virt names the table" true (contains report "ipv4_host");
  ignore (run_ok session "devirtualize ipv4_host");
  check bool "devirtualized" false (Table.virtualized t);
  (* Round-trip of the new command grammar. *)
  List.iter
    (fun line ->
      match Controller.Command.parse_line line with
      | Some cmd ->
        check Alcotest.string "command round-trips" line
          (Controller.Command.to_string cmd)
      | None -> Alcotest.failf "unparsed: %s" line)
    [
      "virtualize ipv4_host --capacity 32";
      "devirtualize ipv4_host";
      "pin ipv4_host 10.1.0.0/24";
      "show_virt";
    ]

(* Protected prefixes are pinned into tiers at both orders: protect-then-
   virtualize and virtualize-then-protect. Blast-radius-guarded traffic
   must never pay an eviction. *)
let test_protected_prefixes_pinned () =
  let session, device = boot_session () in
  (match Controller.Session.protect session "10.1.0.1/32" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "protect: %s" e);
  (match Controller.Session.virtualize session ~table:"ipv4_host" ~capacity:1 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "virtualize: %s" e);
  let t = Option.get (Ipsa.Device.find_table device "ipv4_host") in
  (* Resolve the protected host, then thrash the single slot. *)
  let host = [ B.of_int ~width:16 10; B.of_int ~width:32 0x0A010001 ] in
  let thrash = [ B.of_int ~width:16 10; B.of_int ~width:32 0x0A010063 ] in
  ignore (Table.lookup t host);
  ignore (Table.lookup t thrash);
  ignore (Table.lookup t host);
  check bool "protected host survived the thrash" false (Table.tier_missed t);
  check int "pinned resident" 1 (ts t).Table.ts_pinned;
  (* The other order: virtualize first, protect afterwards. *)
  (match Controller.Session.virtualize session ~table:"dmac" ~capacity:2 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "virtualize dmac: %s" e);
  match Controller.Session.protect session "10.2.0.0/16" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "second protect: %s" e

(* --- observational equivalence ------------------------------------------- *)

(* The virtualized trio must stay in exact lockstep (same tier state ->
   same modeled penalties on every path, with or without a per-packet
   tracer attached) and match a fully-resident reference on forwarding.
   Every 16th packet forces a whole-tier eviction cycle; every 24th
   churns a dmac entry through the controller on all four devices. *)
let virt_equivalence_prop name case =
  let fixture =
    lazy
      (let s_r, dev_r = Diffkit.boot case in
       let s_f, vf = Diffkit.boot case in
       let s_i, vi = Diffkit.boot case in
       let s_t, vt = Diffkit.boot case in
       let devs = [ vf; vi; vt ] in
       List.iter (fun d -> Diffkit.virtualize_all d ~pct:25) devs;
       (dev_r, devs, [ s_r; s_f; s_i; s_t ]))
  in
  QCheck.Test.make ~count:Diffkit.equivalence_count
    ~name:(name ^ ": virtualized trio = resident reference (forwarding)")
    Diffkit.packet_spec
    (fun ((_, idx, in_port) as spec) ->
      let dev_r, devs, sessions = Lazy.force fixture in
      let vf, vi, vt =
        match devs with [ a; b; c ] -> (a, b, c) | _ -> assert false
      in
      (* Forced evictions: shrink every tier to (almost) nothing, then
         restore its capacity — resolutions must rebuild transparently. *)
      if idx mod 16 = 0 then
        List.iter
          (fun d ->
            Diffkit.virtualize_all d ~pct:1;
            Diffkit.virtualize_all d ~pct:25)
          devs;
      (* Table churn under virtualization, identically on the reference
         and on every virtualized twin: add a dmac entry and take it out
         again, so the tier must invalidate without the net contents
         drifting between property iterations. *)
      if idx mod 24 = 0 then begin
        let mac = Printf.sprintf "02:00:00:00:c%x:%02x" (idx land 0xF) idx in
        let churn =
          Printf.sprintf "table_add dmac set_out_port 1 %s => %d\ntable_del dmac 1 %s"
            mac (idx mod 8) mac
        in
        List.iter
          (fun s ->
            match Controller.Session.run_script s churn with
            | Ok _ -> ()
            | Error e -> QCheck.Test.fail_reportf "churn: %s" e)
          sessions
      end;
      let bytes = Net.Packet.contents (Diffkit.build_packet spec) in
      let o_r = Diffkit.observe dev_r bytes ~in_port in
      let o_f = Diffkit.observe_flat vf bytes ~in_port in
      let o_i = Diffkit.observe vi bytes ~in_port in
      let o_t = Diffkit.observe_traced vt bytes ~in_port in
      (* Exact lockstep inside the virtualized trio... *)
      o_f = o_i && o_i = o_t
      (* ...forwarding-only agreement with the resident reference. *)
      && Diffkit.same_forwarding o_f o_r)

let virt_equivalence_tests =
  List.map
    (fun (name, case) -> Diffkit.to_alcotest (virt_equivalence_prop name case))
    Diffkit.cases

let () =
  Alcotest.run "virt"
    [
      ( "tier",
        [
          Alcotest.test_case "lru order" `Quick test_tier_lru;
          Alcotest.test_case "pinning" `Quick test_tier_pin;
          Alcotest.test_case "shrink evicts down" `Quick test_tier_shrink_evicts;
        ] );
      ( "overflow",
        [ Alcotest.test_case "4x declared depth" `Quick test_overflow_4x ] );
      ( "controller",
        [
          Alcotest.test_case "commands" `Quick test_session_commands;
          Alcotest.test_case "protected prefixes pinned" `Quick
            test_protected_prefixes_pinned;
        ] );
      ("equivalence", virt_equivalence_tests);
    ]
