(* Tests for rp4lint, the static verifier: parse-before-use dataflow,
   merge-hazard auditing, update-safety replay, and the wiring into the
   compiler and controller (a design with errors never loads). *)

let check = Alcotest.check

let env_of src =
  match Rp4.Semantic.build (Rp4.Parser.parse_string src) with
  | Ok env -> env
  | Error errs -> Alcotest.failf "bad test program: %s" (String.concat "; " errs)

let codes diags = List.map (fun d -> d.Analysis.Diag.code) diags

let has_code c diags = List.mem c (codes diags)

let assert_code c diags =
  if not (has_code c diags) then
    Alcotest.failf "expected %s, got: %s" c
      (match diags with
      | [] -> "(no findings)"
      | ds -> Analysis.Diag.render_lines ds)

let assert_no_errors name diags =
  match Analysis.Diag.errors diags with
  | [] -> ()
  | errs -> Alcotest.failf "%s: unexpected errors:\n%s" name (Analysis.Diag.render_lines errs)

(* --- fixture: a small program exercised through hand-built graphs ------- *)

(* eth -> ip4 is the implicit-parser linkage; vlan exists but nothing
   links it, so any stage claiming to parse it is RP4E002 fodder. *)
let fixture_src =
  {src|
headers {
  header eth {
    bit<48> dst;
    bit<16> etype;
    implicit parser (etype) {
      0x0800 : ip4;
    }
  }
  header ip4 {
    bit<8> ttl;
    bit<32> dst;
    implicit parser (ttl) { }
  }
  header vlan {
    bit<16> tag;
    implicit parser (tag) { }
  }
}

structs {
  struct metadata_t {
    bit<16> nh;
  } meta;
}

action set_nh(bit<16> v) { meta.nh = v; }
action dec_ttl() { ip4.ttl = ip4.ttl - 1; }

table t_eth {
  key = { eth.dst : exact; }
  size = 16;
}
table t_ip {
  key = { ip4.dst : exact; }
  size = 16;
}
table t_nh {
  key = { meta.nh : exact; }
  size = 16;
}
table t_vlan {
  key = { vlan.tag : exact; }
  size = 16;
}

control rP4_Ingress {
  stage p_eth {
    parser { eth };
    matcher { t_eth.apply(); };
    executor {
      1 : set_nh;
      default : NoAction;
    }
  }
  stage p_ip {
    parser { ip4 };
    matcher { t_ip.apply(); };
    executor {
      1 : dec_ttl;
      default : NoAction;
    }
  }
  stage use_ip {
    parser { };
    matcher { t_ip.apply(); };
    executor {
      1 : dec_ttl;
      default : NoAction;
    }
  }
  stage use_meta {
    parser { };
    matcher { t_nh.apply(); };
    executor {
      1 : set_nh;
      default : NoAction;
    }
  }
  stage read_meta {
    parser { };
    matcher { t_nh.apply(); };
    executor {
      1 : dec_ttl;
      default : NoAction;
    }
  }
  stage par_vlan {
    parser { vlan };
    matcher { t_vlan.apply(); };
    executor {
      1 : set_nh;
      default : NoAction;
    }
  }
  stage probe_vlan {
    parser { };
    matcher { if (vlan.isValid()) t_eth.apply(); else; };
    executor {
      1 : set_nh;
      default : NoAction;
    }
  }
  stage g4 {
    parser { };
    matcher { if (meta.nh == 4) t_nh.apply(); else; };
    executor {
      1 : set_nh;
      default : NoAction;
    }
  }
  stage g6 {
    parser { eth };
    matcher { if (meta.nh == 6) t_eth.apply(); else; };
    executor {
      1 : set_nh;
      default : NoAction;
    }
  }
}

user_funcs {
  func all { p_eth p_ip use_ip use_meta read_meta par_vlan probe_vlan g4 g6 }
  ingress_entry : p_eth;
}
|src}

let fixture_env = lazy (env_of fixture_src)

let run_graph igraph =
  Analysis.Parsecheck.run ~env:(Lazy.force fixture_env) ~igraph
    ~egraph:(Rp4bc.Graph.create ())

let chain names = Rp4bc.Graph.of_chain names

(* --- pass 1: parse-before-use ------------------------------------------- *)

let test_parse_never () =
  (* use_ip touches ip4 fields; nothing on the path parses ip4 *)
  let diags = run_graph (chain [ "p_eth"; "use_ip" ]) in
  assert_code "RP4E001" diags;
  let e001 =
    List.filter (fun d -> d.Analysis.Diag.code = "RP4E001") diags
  in
  List.iter
    (fun d ->
      check (Alcotest.option Alcotest.string) "anchored at use_ip" (Some "use_ip")
        d.Analysis.Diag.stage)
    e001

let test_parse_some_paths () =
  (* diamond: only one branch parses ip4, the join reads it -> RP4E003 *)
  let g = Rp4bc.Graph.create ~entry:"p_eth" () in
  Rp4bc.Graph.add_link g ~from_:"p_eth" ~to_:"p_ip";
  Rp4bc.Graph.add_link g ~from_:"p_eth" ~to_:"use_meta";
  Rp4bc.Graph.add_link g ~from_:"p_ip" ~to_:"use_ip";
  Rp4bc.Graph.add_link g ~from_:"use_meta" ~to_:"use_ip";
  let diags = run_graph g in
  assert_code "RP4E003" diags;
  check Alcotest.bool "not also RP4E001" false (has_code "RP4E001" diags)

let test_parse_all_paths_clean () =
  (* both branches parse ip4 -> the join is clean *)
  let g = Rp4bc.Graph.create ~entry:"p_eth" () in
  Rp4bc.Graph.add_link g ~from_:"p_eth" ~to_:"p_ip";
  Rp4bc.Graph.add_link g ~from_:"p_ip" ~to_:"use_ip";
  let diags = run_graph g in
  assert_no_errors "linear parse chain" diags

let test_unlinked_parser () =
  (* par_vlan's parser lists vlan, which no implicit-parser chain reaches *)
  let diags = run_graph (chain [ "p_eth"; "par_vlan" ]) in
  assert_code "RP4E002" diags

let test_cycle () =
  let g = Rp4bc.Graph.create ~entry:"p_eth" () in
  Rp4bc.Graph.add_link g ~from_:"p_eth" ~to_:"p_ip";
  Rp4bc.Graph.add_link g ~from_:"p_ip" ~to_:"p_eth";
  assert_code "RP4E004" (run_graph g)

let test_unknown_stage () =
  assert_code "RP4E005" (run_graph (chain [ "p_eth"; "ghost" ]))

let test_meta_read_never_written () =
  (* use_meta keys on meta.nh; p_ip upstream never writes it *)
  let diags = run_graph (chain [ "p_ip"; "use_meta" ]) in
  assert_code "RP4W101" diags;
  (* ... but with the writer p_eth upstream the read is fine *)
  let diags' = run_graph (chain [ "p_eth"; "use_meta" ]) in
  check Alcotest.bool "no W101 with writer upstream" false (has_code "RP4W101" diags')

let test_validity_probe_unparsed () =
  let diags = run_graph (chain [ "p_eth"; "probe_vlan" ]) in
  assert_code "RP4W104" diags;
  assert_no_errors "a probe is a warning, not an error" diags

let test_unreachable_stage () =
  let diags = run_graph (chain [ "p_eth" ]) in
  assert_code "RP4W102" diags

(* --- pass 2: merge hazards ---------------------------------------------- *)

let audit_group stages =
  Analysis.Mergecheck.audit_group (Lazy.force fixture_env)
    ~limits:Rp4bc.Group.default_limits
    { Rp4bc.Group.g_stages = stages; g_tables = [] }

(* audit_group with the bookkeeping (RP4E015) noise filtered out; the
   hand-built groups above leave g_tables empty on purpose *)
let audit_hazards stages =
  List.filter (fun d -> d.Analysis.Diag.code <> "RP4E015") (audit_group stages)

let test_merge_raw () =
  (* p_eth writes meta.nh, use_meta keys on it *)
  assert_code "RP4E010" (audit_hazards [ "p_eth"; "use_meta" ])

let test_merge_waw () =
  (* p_eth and par_vlan both write meta.nh, neither reads it *)
  assert_code "RP4E011" (audit_hazards [ "p_eth"; "par_vlan" ])

let test_merge_war () =
  (* read_meta keys on meta.nh, p_eth (later in the group) writes it *)
  assert_code "RP4E012" (audit_hazards [ "read_meta"; "p_eth" ])

let test_merge_shared_table () =
  (* p_ip and use_ip both apply t_ip *)
  assert_code "RP4E013" (audit_group [ "p_ip"; "use_ip" ])

let test_merge_exclusive_guards () =
  (* g4 and g6 both write meta.nh, but their guards (meta.nh == 4 vs 6)
     can never both hold -> no hazard *)
  assert_no_errors "exclusive guards" (audit_hazards [ "g4"; "g6" ])

let test_merge_capacity () =
  let diags =
    Analysis.Mergecheck.audit_group (Lazy.force fixture_env)
      ~limits:{ Rp4bc.Group.max_stages = 1; max_tables = 4 }
      { Rp4bc.Group.g_stages = [ "g4"; "g6" ]; g_tables = [] }
  in
  assert_code "RP4E014" diags

let test_merge_bookkeeping () =
  (* the recorded table list disagrees with what the stages apply *)
  let diags =
    Analysis.Mergecheck.audit_group (Lazy.force fixture_env)
      ~limits:Rp4bc.Group.default_limits
      { Rp4bc.Group.g_stages = [ "p_eth" ]; g_tables = [ "t_ip" ] }
  in
  assert_code "RP4E015" diags

let test_merge_unknown_stage () =
  assert_code "RP4E015" (audit_group [ "ghost" ])

(* The deliberate strengthening over the compiler's own summaries:
   set_valid counts as a write of the header's validity bit, so a stage
   validating vlan conflicts with a stage probing vlan.isValid(). *)
let valid_hazard_src =
  fixture_src |> fun _ ->
  {src|
headers {
  header eth {
    bit<48> dst;
    bit<16> etype;
    implicit parser (etype) {
      0x8100 : vlan;
    }
  }
  header vlan {
    bit<16> tag;
    implicit parser (tag) { }
  }
}

structs {
  struct metadata_t {
    bit<16> nh;
  } meta;
}

action make_vlan() { set_valid(vlan); }
action set_nh(bit<16> v) { meta.nh = v; }

table t_eth {
  key = { eth.dst : exact; }
  size = 16;
}
table t_nh {
  key = { meta.nh : exact; }
  size = 16;
}

control rP4_Ingress {
  stage validator {
    parser { eth };
    matcher { t_eth.apply(); };
    executor {
      1 : make_vlan;
      default : NoAction;
    }
  }
  stage prober {
    parser { };
    matcher { if (vlan.isValid()) t_nh.apply(); else; };
    executor {
      1 : set_nh;
      default : NoAction;
    }
  }
}

user_funcs {
  func all { validator prober }
  ingress_entry : validator;
}
|src}

let test_merge_validity_hazard () =
  let env = env_of valid_hazard_src in
  let diags =
    Analysis.Mergecheck.audit_group env ~limits:Rp4bc.Group.default_limits
      { Rp4bc.Group.g_stages = [ "validator"; "prober" ]; g_tables = [] }
  in
  (* validator writes vlan.$valid, prober reads it: RAW *)
  assert_code "RP4E010" diags

(* --- pass 3: update safety ---------------------------------------------- *)

let ct name =
  {
    Ipsa.Template.ct_name = name;
    ct_fields = [];
    ct_size = 16;
    ct_entry_width = 32;
  }

let simulate ops =
  let st = Analysis.Updatecheck.empty_state () in
  let transit = Analysis.Updatecheck.simulate st ops in
  (st, transit)

let test_update_connect_before_alloc () =
  let _, diags = simulate [ Ipsa.Config.Connect_table (0, "t") ] in
  assert_code "RP4E020" diags

let test_update_free_unallocated () =
  let _, diags = simulate [ Ipsa.Config.Free_table "t" ] in
  assert_code "RP4E024" diags

let test_update_leaked_alloc () =
  (* allocated, never referenced by any template: leaked pool blocks *)
  let st, transit = simulate [ Ipsa.Config.Alloc_table (ct "t", None) ] in
  check Alcotest.int "clean transit" 0 (List.length transit);
  assert_code "RP4E022" (Analysis.Updatecheck.final_checks st)

let test_update_make_before_break () =
  (* alloc -> connect -> free is clean op-by-op; freeing first is not *)
  let good =
    [
      Ipsa.Config.Alloc_table (ct "t", None);
      Ipsa.Config.Connect_table (0, "t");
      Ipsa.Config.Free_table "t";
      Ipsa.Config.Alloc_table (ct "u", None);
    ]
  in
  let _, diags = simulate good in
  check Alcotest.int "ordered ops transit clean" 0
    (List.length (Analysis.Diag.errors diags))

(* --- whole-design checks: every bundled usecase is clean ----------------- *)

let test_usecase_base_designs_clean () =
  List.iter
    (fun (name, src) ->
      match Analysis.Check.check_program (Rp4.Parser.parse_string src) with
      | Error errs -> Alcotest.failf "%s failed to compile: %s" name (String.concat "; " errs)
      | Ok (_, diags) ->
        check Alcotest.int (name ^ " has no findings") 0 (List.length diags))
    [ ("base_l23", Usecases.Base_l23.source); ("base_split", Usecases.Base_split.source) ]

let test_usecase_translated_clean () =
  let prog =
    Rp4fc.Translate.translate (P4lite.Parser.parse_string Usecases.P4_base.source)
  in
  match Analysis.Check.check_program prog with
  | Error errs -> Alcotest.failf "translated base failed: %s" (String.concat "; " errs)
  | Ok (_, diags) -> assert_no_errors "fc-translated base" diags

let base_design () =
  let pool = Ipsa.Device.default_pool () in
  match
    Rp4bc.Compile.compile_full ~pool (Rp4.Parser.parse_string Usecases.Base_l23.source)
  with
  | Ok r -> r.Rp4bc.Compile.design
  | Error errs -> Alcotest.failf "base compile failed: %s" (String.concat "; " errs)

let update_cmds script =
  List.filter_map
    (fun cmd ->
      match cmd with
      | Controller.Command.Add_link (a, b) -> Some (Rp4bc.Compile.Add_link (a, b))
      | Controller.Command.Del_link (a, b) -> Some (Rp4bc.Compile.Del_link (a, b))
      | Controller.Command.Link_header { pre; next; tag } ->
        Some (Rp4bc.Compile.Link_hdr (pre, tag, next))
      | Controller.Command.Unlink_header { pre; next } ->
        Some (Rp4bc.Compile.Unlink_hdr (pre, next))
      | _ -> None)
    (Controller.Command.parse_script script)

let check_usecase_update ~snippet ~func_name ~script =
  match
    Analysis.Check.check_update (base_design ()) ~snippet:(Rp4.Parser.parse_string snippet)
      ~func_name ~cmds:(update_cmds script) ()
  with
  | Error errs -> Alcotest.failf "%s update failed: %s" func_name (String.concat "; " errs)
  | Ok (_, diags) -> diags

let test_usecase_updates_clean () =
  let srv6 =
    check_usecase_update ~snippet:Usecases.Srv6.source ~func_name:"srv6"
      ~script:Usecases.Srv6.script
  in
  check Alcotest.int "srv6 has no findings" 0 (List.length srv6);
  let probe =
    check_usecase_update ~snippet:Usecases.Flowprobe.source ~func_name:"flow_probe"
      ~script:Usecases.Flowprobe.script
  in
  check Alcotest.int "flow_probe has no findings" 0 (List.length probe)

let test_usecase_ecmp_orphan_warning () =
  (* the ecmp splice intentionally orphans the nexthop stage: the linter
     reports the recycled table as a warning, never an error *)
  let diags =
    check_usecase_update ~snippet:Usecases.Ecmp.source ~func_name:"ecmp"
      ~script:Usecases.Ecmp.script
  in
  assert_no_errors "ecmp update" diags;
  assert_code "RP4W103" diags

(* --- wiring: the compiler and the controller refuse bad designs ---------- *)

let bad_boot_src =
  {src|
headers {
  header eth {
    bit<48> dst;
    bit<16> etype;
    implicit parser (etype) {
      0x0800 : ip4;
    }
  }
  header ip4 {
    bit<8> ttl;
    bit<32> dst;
    implicit parser (ttl) { }
  }
}

structs {
  struct metadata_t {
    bit<16> nh;
  } meta;
}

action set_nh(bit<16> v) { meta.nh = v; }

table t_ip {
  key = { ip4.dst : exact; }
  size = 16;
}

control rP4_Ingress {
  stage lookup {
    parser { };
    matcher { t_ip.apply(); };
    executor {
      1 : set_nh;
      default : NoAction;
    }
  }
}

user_funcs {
  func all { lookup }
  ingress_entry : lookup;
}
|src}

let contains_sub s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_session_rejects_bad_design () =
  let device = Ipsa.Device.create ~ntsps:8 () in
  match Controller.Session.boot ~source:bad_boot_src device with
  | Ok _ -> Alcotest.fail "boot should refuse a design that reads unparsed headers"
  | Error errs ->
    check Alcotest.bool "mentions RP4E001" true
      (List.exists (fun e -> contains_sub e "RP4E001") errs)

let test_session_boot_clean () =
  let device = Ipsa.Device.create ~ntsps:8 () in
  match Controller.Session.boot ~source:Usecases.Base_l23.source device with
  | Error errs -> Alcotest.failf "boot failed: %s" (String.concat "; " errs)
  | Ok session ->
    check (Alcotest.list Alcotest.string) "no warnings on the base design" []
      (Controller.Session.last_warnings session)

let test_verify_hook_direct () =
  (* compile_full with the verifier rejects; without it, it accepts *)
  let prog = Rp4.Parser.parse_string bad_boot_src in
  let pool = Ipsa.Device.default_pool () in
  (match Rp4bc.Compile.compile_full ~pool prog with
  | Ok _ -> ()
  | Error errs ->
    Alcotest.failf "unverified compile should pass: %s" (String.concat "; " errs));
  match
    Rp4bc.Compile.compile_full ~verify:Analysis.Check.verifier
      ~pool:(Ipsa.Device.default_pool ()) prog
  with
  | Ok _ -> Alcotest.fail "verified compile should fail"
  | Error _ -> ()

(* --- diagnostics plumbing ------------------------------------------------ *)

let test_diag_renderers () =
  let d =
    Analysis.Diag.error ~code:"RP4E001" ~pass:"parse-before-use" ~stage:"s"
      ~subject:"ip4.dst" "read of ip4.dst"
  in
  let line = Analysis.Diag.to_line d in
  check Alcotest.bool "line carries the code" true (contains_sub line "RP4E001");
  check Alcotest.bool "line carries the location" true (contains_sub line "s: ip4.dst");
  let json = Analysis.Diag.render_json [ d ] in
  check Alcotest.bool "json carries the code" true (contains_sub json "RP4E001");
  check Alcotest.bool "catalog knows every emitted code" true
    (Analysis.Diag.describe "RP4E001" <> None && Analysis.Diag.describe "RP4W103" <> None)

(* --- abstract domain ----------------------------------------------------- *)

module D = Analysis.Domain

let iv name expect v =
  check Alcotest.bool name true (D.interval v = expect)

let test_domain_const_and_join () =
  iv "const is a singleton" (Some (5L, 5L)) (D.const 8 5L);
  iv "join spans both" (Some (5L, 7L)) (D.join (D.const 8 5L) (D.const 8 7L));
  iv "unknown spans the width" (Some (0L, 255L)) (D.unknown 8);
  check Alcotest.bool "wide values degrade to top" true
    (D.interval (D.unknown 64) = None)

let test_domain_meet () =
  check Alcotest.bool "disjoint constants meet to bottom" true
    (D.meet (D.const 8 5L) (D.const 8 7L) = None);
  (match D.meet (D.join (D.const 8 5L) (D.const 8 7L)) (D.const 8 7L) with
  | Some v -> iv "meet refines to the constant" (Some (7L, 7L)) v
  | None -> Alcotest.fail "meet of overlapping values should not be bottom")

let test_domain_tri_relations () =
  check Alcotest.bool "eq of equal constants" true
    (D.eq_tri (D.const 8 5L) (D.const 8 5L) = D.True);
  check Alcotest.bool "eq of distinct constants" true
    (D.eq_tri (D.const 8 5L) (D.const 8 7L) = D.False);
  check Alcotest.bool "eq against an interval is unknown" true
    (D.eq_tri (D.join (D.const 8 5L) (D.const 8 7L)) (D.const 8 5L) = D.Unknown);
  check Alcotest.bool "lt of ordered constants" true
    (D.lt_tri (D.const 8 5L) (D.const 8 7L) = D.True);
  check Alcotest.bool "rel Neq of distinct constants" true
    (D.rel Rp4.Ast.Neq (D.const 8 5L) (D.const 8 7L) = D.True)

let test_domain_assume_rel () =
  (match D.assume_rel Rp4.Ast.Le (D.unknown 8) 10L with
  | Some v -> iv "Le clamps the upper bound" (Some (0L, 10L)) v
  | None -> Alcotest.fail "Le 10 over bit<8> is satisfiable");
  check Alcotest.bool "contradictory Eq is bottom" true
    (D.assume_rel Rp4.Ast.Eq (D.const 8 5L) 7L = None);
  check Alcotest.bool "Gt max is bottom" true
    (D.assume_rel Rp4.Ast.Gt (D.unknown 8) 255L = None)

let test_domain_arith () =
  iv "constant addition" (Some (12L, 12L)) (D.add (D.const 8 5L) (D.const 8 7L));
  (* band tracks exact known bits even where its interval stays coarse *)
  let b = D.band (D.const 8 12L) (D.const 8 10L) in
  check Alcotest.bool "band knows the result can be 8" true
    (D.meet b (D.const 8 8L) <> None);
  check Alcotest.bool "band knows the result cannot be 9" true
    (D.meet b (D.const 8 9L) = None);
  iv "resize widens losslessly" (Some (5L, 5L)) (D.resize (D.const 4 5L) 8)

(* --- seeded-defect examples (examples/rp4/bad) --------------------------- *)

(* dune copies the example tree next to the test binary, same convention
   as test_golden. *)
let bad_root =
  Filename.concat ".." (Filename.concat "examples" (Filename.concat "rp4" "bad"))

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let check_bad_example name =
  let src = read_file (Filename.concat bad_root name) in
  match Analysis.Check.check_program (Rp4.Parser.parse_string src) with
  | Error errs -> Alcotest.failf "%s failed to compile: %s" name (String.concat "; " errs)
  | Ok (_, diags) -> diags

let assert_exact_errors name expected diags =
  let got = List.sort compare (codes (Analysis.Diag.errors diags)) in
  if got <> List.sort compare expected then
    Alcotest.failf "%s: expected errors %s, got:\n%s" name
      (String.concat ", " expected)
      (Analysis.Diag.render_lines diags)

let test_bad_dead_table () =
  let diags = check_bad_example "dead_table.rp4" in
  assert_code "RP4E030" diags;
  assert_exact_errors "dead_table" [ "RP4E030" ] diags

let test_bad_width_overflow () =
  let diags = check_bad_example "width_overflow.rp4" in
  assert_code "RP4E031" diags;
  assert_exact_errors "width_overflow" [ "RP4E031" ] diags

let test_bad_invalid_header_read () =
  let diags = check_bad_example "invalid_header_read.rp4" in
  assert_code "RP4E033" diags;
  assert_exact_errors "invalid_header_read" [ "RP4E033" ] diags

let test_bad_conflicting_merge () =
  let diags = check_bad_example "conflicting_merge.rp4" in
  assert_code "RP4E011" diags;
  assert_code "RP4E032" diags;
  assert_exact_errors "conflicting_merge" [ "RP4E011"; "RP4E032" ] diags

(* --- blast radius --------------------------------------------------------- *)

let pfx s =
  match Analysis.Impact.prefix_of_string s with
  | Ok p -> p
  | Error e -> Alcotest.failf "bad prefix %s: %s" s e

let test_impact_prefix_parsing () =
  let p = pfx "10.1.0.0/16" in
  check Alcotest.string "bare v4 defaults to ipv4.dst_addr" "ipv4.dst_addr"
    p.Analysis.Impact.pf_field;
  check Alcotest.int "v4 prefix length" 16 p.Analysis.Impact.pf_plen;
  let p6 = pfx "2001:db8::/32" in
  check Alcotest.string "bare v6 defaults to ipv6.dst_addr" "ipv6.dst_addr"
    p6.Analysis.Impact.pf_field;
  let ps = pfx "ipv4.src_addr=192.0.2.0/24" in
  check Alcotest.string "explicit field wins" "ipv4.src_addr"
    ps.Analysis.Impact.pf_field;
  (match Analysis.Impact.prefix_of_string "not-a-prefix" with
  | Ok _ -> Alcotest.fail "junk prefix should not parse"
  | Error _ -> ())

let empty_report =
  {
    Analysis.Impact.i_added = [];
    i_removed = [];
    i_edited = [];
    i_tables_added = [];
    i_tables_removed = [];
    i_classes = [];
    i_total = false;
    i_paths = 0;
  }

let test_impact_intersects () =
  check Alcotest.bool "empty radius intersects nothing" false
    (Analysis.Impact.intersects empty_report (pfx "0.0.0.0/0"));
  check Alcotest.bool "total radius intersects everything" true
    (Analysis.Impact.intersects { empty_report with i_total = true }
       (pfx "203.0.113.0/24"));
  let cls atoms =
    { Analysis.Impact.tc_stage = "s"; tc_design = "new"; tc_atoms = atoms }
  in
  let eq_report =
    { empty_report with
      i_classes = [ cls [ Analysis.Symexec.A_eq ("ipv4.dst_addr", 0x0A010203L) ] ] }
  in
  check Alcotest.bool "constant inside the prefix intersects" true
    (Analysis.Impact.intersects eq_report (pfx "10.1.0.0/16"));
  check Alcotest.bool "constant outside the prefix does not" false
    (Analysis.Impact.intersects eq_report (pfx "10.2.0.0/16"));
  let no_v4 =
    { empty_report with
      i_classes = [ cls [ Analysis.Symexec.A_valid ("ipv4", false) ] ] }
  in
  check Alcotest.bool "class without the header cannot intersect" false
    (Analysis.Impact.intersects no_v4 (pfx "10.0.0.0/8"));
  let unconstrained = { empty_report with i_classes = [ cls [] ] } in
  check Alcotest.bool "unconstrained class intersects conservatively" true
    (Analysis.Impact.intersects unconstrained (pfx "10.0.0.0/8"))

let test_impact_ecmp_bounded () =
  let base = base_design () in
  match
    Analysis.Check.check_update base
      ~snippet:(Rp4.Parser.parse_string Usecases.Ecmp.source) ~func_name:"ecmp"
      ~cmds:(update_cmds Usecases.Ecmp.script) ()
  with
  | Error errs -> Alcotest.failf "ecmp update failed: %s" (String.concat "; " errs)
  | Ok (r, _) ->
    let rep =
      Analysis.Check.impact ~old_design:base ~design:r.Rp4bc.Compile.design ()
    in
    check Alcotest.bool "ecmp stage is in the diff" true
      (List.mem "ecmp" rep.Analysis.Impact.i_added);
    check Alcotest.bool "radius is not total" false rep.Analysis.Impact.i_total;
    check Alcotest.bool "radius has concrete classes" true
      (Analysis.Impact.radius_size rep > 0);
    check Alcotest.bool "routed v4 traffic is inside the radius" true
      (Analysis.Impact.intersects rep (pfx "10.0.0.0/8"));
    check Alcotest.bool "summary mentions the class count" true
      (contains_sub (Analysis.Impact.summary rep)
         (string_of_int (Analysis.Impact.radius_size rep)))

(* --- session gating: protected prefixes refuse in-radius patches --------- *)

let resolve_file name =
  match name with
  | "ecmp.rp4" -> Usecases.Ecmp.source
  | "srv6.rp4" -> Usecases.Srv6.source
  | "probe.rp4" -> Usecases.Flowprobe.source
  | other -> invalid_arg ("no such file " ^ other)

let test_session_protect_gate () =
  let device = Ipsa.Device.create ~ntsps:8 () in
  match Controller.Session.boot ~resolve_file ~source:Usecases.Base_l23.source device with
  | Error errs -> Alcotest.failf "boot failed: %s" (String.concat "; " errs)
  | Ok session ->
    (match Controller.Session.run_script session Usecases.Base_l23.population with
    | Error e -> Alcotest.failf "population failed: %s" e
    | Ok _ -> ());
    (match Controller.Session.protect session "10.0.0.0/8" with
    | Ok () -> ()
    | Error e -> Alcotest.failf "protect failed: %s" e);
    (match Controller.Session.run_script session Usecases.Ecmp.script with
    | Ok _ -> Alcotest.fail "commit inside a protected prefix must be refused"
    | Error e ->
      check Alcotest.bool "refusal names the blast radius" true
        (contains_sub e "blast radius"));
    (match Controller.Session.last_impact session with
    | None -> Alcotest.fail "refused commit should still record its impact"
    | Some rep ->
      check Alcotest.bool "recorded radius is non-empty" true
        (Analysis.Impact.radius_size rep > 0));
    (* the transaction stays pending: lifting the protection lets the
       very same commit through *)
    Controller.Session.unprotect_all session;
    (match Controller.Session.commit session with
    | Ok _ -> ()
    | Error errs ->
      Alcotest.failf "commit after unprotect failed: %s" (String.concat "; " errs))

(* --- flat-path prediction vs. the device's compiler ---------------------- *)

(* bit<64> arithmetic is outside the flat subset: the analyzer must
   predict the gap that Device.relink later reports for the same TSP. *)
let test_flat_prediction_matches_device () =
  let prog = Rp4.Parser.parse_string Diffkit.wide_arith_src in
  let pool = Ipsa.Device.default_pool () in
  match Rp4bc.Compile.compile_full ~pool prog with
  | Error errs -> Alcotest.failf "wide compile failed: %s" (String.concat "; " errs)
  | Ok c ->
    let design = c.Rp4bc.Compile.design in
    let r = Analysis.Symexec.run design in
    check Alcotest.bool "analyzer predicts a flat gap on [wide]" true
      (List.mem_assoc "wide" r.Analysis.Symexec.r_flat_gaps);
    let device = Ipsa.Device.create ~ntsps:8 () in
    (match Ipsa.Device.apply_patch device c.Rp4bc.Compile.patch with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "boot failed: %s" e);
    check Alcotest.bool "device is off the flat path" false
      (Ipsa.Device.flat_ready device);
    let report = Ipsa.Device.flat_report device in
    check Alcotest.bool "device reports per-slot reasons" true (report <> []);
    let wide_tsps =
      List.filter_map
        (fun (i, stages, _) -> if List.mem "wide" stages then Some i else None)
        (Rp4bc.Design.mapping design)
    in
    check Alcotest.bool "the gapped slot hosts the predicted stage" true
      (List.exists (fun (i, _) -> List.mem i wide_tsps) report);
    (* and on the clean base design both sides agree there is no gap *)
    let base = base_design () in
    let rb = Analysis.Symexec.run base in
    check Alcotest.bool "base design predicts no flat gaps" true
      (rb.Analysis.Symexec.r_flat_gaps = [])

let () =
  Alcotest.run "analysis"
    [
      ( "parse-before-use",
        [
          Alcotest.test_case "never parsed on any path" `Quick test_parse_never;
          Alcotest.test_case "parsed on only some paths" `Quick test_parse_some_paths;
          Alcotest.test_case "parsed on all paths is clean" `Quick
            test_parse_all_paths_clean;
          Alcotest.test_case "parser lists unlinked header" `Quick test_unlinked_parser;
          Alcotest.test_case "cycle detection" `Quick test_cycle;
          Alcotest.test_case "unknown stage in graph" `Quick test_unknown_stage;
          Alcotest.test_case "meta read never written" `Quick
            test_meta_read_never_written;
          Alcotest.test_case "validity probe on unparsed header" `Quick
            test_validity_probe_unparsed;
          Alcotest.test_case "unreachable stage" `Quick test_unreachable_stage;
        ] );
      ( "merge-hazard",
        [
          Alcotest.test_case "read-after-write" `Quick test_merge_raw;
          Alcotest.test_case "write-after-write" `Quick test_merge_waw;
          Alcotest.test_case "write-after-read" `Quick test_merge_war;
          Alcotest.test_case "shared table" `Quick test_merge_shared_table;
          Alcotest.test_case "exclusive guards are independent" `Quick
            test_merge_exclusive_guards;
          Alcotest.test_case "capacity limits" `Quick test_merge_capacity;
          Alcotest.test_case "bookkeeping mismatch" `Quick test_merge_bookkeeping;
          Alcotest.test_case "unknown member stage" `Quick test_merge_unknown_stage;
          Alcotest.test_case "set_valid vs isValid hazard" `Quick
            test_merge_validity_hazard;
        ] );
      ( "update-safety",
        [
          Alcotest.test_case "connect before alloc" `Quick
            test_update_connect_before_alloc;
          Alcotest.test_case "free unallocated" `Quick test_update_free_unallocated;
          Alcotest.test_case "leaked allocation" `Quick test_update_leaked_alloc;
          Alcotest.test_case "make-before-break order is clean" `Quick
            test_update_make_before_break;
        ] );
      ( "usecases",
        [
          Alcotest.test_case "base designs are clean" `Quick
            test_usecase_base_designs_clean;
          Alcotest.test_case "fc-translated base is clean" `Quick
            test_usecase_translated_clean;
          Alcotest.test_case "srv6 and flow_probe updates are clean" `Quick
            test_usecase_updates_clean;
          Alcotest.test_case "ecmp orphan is a warning" `Quick
            test_usecase_ecmp_orphan_warning;
        ] );
      ( "wiring",
        [
          Alcotest.test_case "session refuses a bad design" `Quick
            test_session_rejects_bad_design;
          Alcotest.test_case "session boots the base with no warnings" `Quick
            test_session_boot_clean;
          Alcotest.test_case "compile_full verify hook" `Quick test_verify_hook_direct;
          Alcotest.test_case "diag renderers" `Quick test_diag_renderers;
        ] );
      ( "domain",
        [
          Alcotest.test_case "const and join" `Quick test_domain_const_and_join;
          Alcotest.test_case "meet" `Quick test_domain_meet;
          Alcotest.test_case "tri-valued relations" `Quick test_domain_tri_relations;
          Alcotest.test_case "assume_rel refinement" `Quick test_domain_assume_rel;
          Alcotest.test_case "arithmetic transfer" `Quick test_domain_arith;
        ] );
      ( "seeded-defects",
        [
          Alcotest.test_case "dead table (E030)" `Quick test_bad_dead_table;
          Alcotest.test_case "width overflow (E031)" `Quick test_bad_width_overflow;
          Alcotest.test_case "invalid header read (E033)" `Quick
            test_bad_invalid_header_read;
          Alcotest.test_case "conflicting merge (E011+E032)" `Quick
            test_bad_conflicting_merge;
        ] );
      ( "blast-radius",
        [
          Alcotest.test_case "prefix parsing" `Quick test_impact_prefix_parsing;
          Alcotest.test_case "intersection logic" `Quick test_impact_intersects;
          Alcotest.test_case "ecmp radius is bounded" `Quick test_impact_ecmp_bounded;
          Alcotest.test_case "protected prefix refuses the patch" `Quick
            test_session_protect_gate;
        ] );
      ( "flat-prediction",
        [
          Alcotest.test_case "analyzer matches the device linker" `Quick
            test_flat_prediction_matches_device;
        ] );
    ]
