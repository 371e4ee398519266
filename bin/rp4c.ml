(* rp4c — the rP4 compiler command-line front end.

   Subcommands mirror the paper's design flow (Fig. 3):
     rp4c fc FILE.p4              P4 -> rP4 source + runtime table APIs
     rp4c bc FILE.rp4             full back-end compile: mapping + JSON config
     rp4c patch --base B --snippet S --func F --script SCRIPT
                                  incremental compile: updated design + patch
     rp4c check FILE.rp4 [--script SCRIPT] | rp4c check --usecases
                                  rp4lint: dataflow / merge / update verification *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* --- fc ---------------------------------------------------------------- *)

let fc_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.p4") in
  let run file =
    try
      let p4 = P4lite.Parser.parse_string (read_file file) in
      let rp4_prog = Rp4fc.Translate.translate p4 in
      print_endline (Rp4.Pretty.program rp4_prog);
      `Ok ()
    with
    | P4lite.Parser.Error e | Rp4.Lexer.Error e -> `Error (false, e)
    | P4lite.Hlir.Unsupported e -> `Error (false, e)
    | Rp4fc.Translate.Error e -> `Error (false, e)
  in
  Cmd.v
    (Cmd.info "fc" ~doc:"front-end compile: P4 to semantically equivalent rP4")
    Term.(ret (const run $ file))

(* --- bc ---------------------------------------------------------------- *)

let bc_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.rp4") in
  let ntsps =
    Arg.(value & opt int 8 & info [ "ntsps" ] ~doc:"number of physical TSPs")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"print the full device configuration JSON")
  in
  let run file ntsps json =
    try
      let prog = Rp4.Parser.parse_string (read_file file) in
      let pool = Ipsa.Device.default_pool () in
      let opts = { Rp4bc.Compile.default_options with Rp4bc.Compile.ntsps } in
      match Rp4bc.Compile.compile_full ~opts ~pool prog with
      | Error errs -> `Error (false, String.concat "\n" errs)
      | Ok compiled ->
        print_endline "TSP mapping:";
        print_endline (Rp4bc.Design.mapping_to_string compiled.Rp4bc.Compile.design);
        Printf.printf "\nconfig: %d bytes, %d templates, %d tables placed\n"
          compiled.Rp4bc.Compile.stats.Rp4bc.Compile.config_bytes
          compiled.Rp4bc.Compile.stats.Rp4bc.Compile.templates_emitted
          compiled.Rp4bc.Compile.stats.Rp4bc.Compile.tables_placed;
        if json then print_endline (Ipsa.Config.to_string compiled.Rp4bc.Compile.patch);
        `Ok ()
    with Rp4.Parser.Error e | Rp4.Lexer.Error e -> `Error (false, e)
  in
  Cmd.v
    (Cmd.info "bc" ~doc:"back-end compile: rP4 to TSP templates and configuration")
    Term.(ret (const run $ file $ ntsps $ json))

(* --- patch ------------------------------------------------------------- *)

let patch_cmd =
  let base =
    Arg.(required & opt (some file) None & info [ "base" ] ~docv:"BASE.rp4")
  in
  let script =
    Arg.(required & opt (some file) None & info [ "script" ] ~docv:"SCRIPT")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"print the patch JSON")
  in
  let run base script json =
    try
      let device = Ipsa.Device.create ~ntsps:8 () in
      let dir = Filename.dirname script in
      let resolve_file name =
        read_file (if Filename.is_relative name then Filename.concat dir name else name)
      in
      match
        Controller.Session.boot ~resolve_file ~source:(read_file base) device
      with
      | Error errs -> `Error (false, String.concat "\n" errs)
      | Ok session -> (
        match Controller.Session.run_script session (read_file script) with
        | Error e -> `Error (false, e)
        | Ok outputs ->
          List.iter print_endline outputs;
          (match Controller.Session.last_timing session with
          | Some t ->
            Printf.printf
              "\ncompile: %.2f ms, %d templates rewritten, %d tables placed, %d freed\n"
              (t.Controller.Session.compile_ns /. 1e6)
              t.Controller.Session.compile_stats.Rp4bc.Compile.templates_emitted
              t.Controller.Session.compile_stats.Rp4bc.Compile.tables_placed
              t.Controller.Session.compile_stats.Rp4bc.Compile.tables_freed
          | None -> ());
          print_endline "\nupdated base design:";
          print_endline (Rp4bc.Design.to_source (Controller.Session.design session));
          if json then ();
          `Ok ())
    with
    | Rp4.Parser.Error e | Rp4.Lexer.Error e -> `Error (false, e)
    | Sys_error e -> `Error (false, e)
  in
  Cmd.v
    (Cmd.info "patch"
       ~doc:"incremental compile: apply an update script to a base design")
    Term.(ret (const run $ base $ script $ json))

(* --- check ------------------------------------------------------------- *)

(* rp4lint. A run either fails to compile (the compiler's own errors) or
   yields a diagnostic report; both count as failures when errors are
   present, so CI can gate on the exit status. *)

type outcome = (Analysis.Diag.t list, string list) result

let check_prog ~ntsps prog : outcome =
  let opts = { Rp4bc.Compile.default_options with Rp4bc.Compile.ntsps } in
  match Analysis.Check.check_program ~opts prog with
  | Error errs -> Error errs
  | Ok (_result, diags) -> Ok diags

(* Stage an update script the way a controller session would, but without
   a device: the linting needs only the compiled patch. Runtime commands
   (commit / table_add / ...) are ignored. *)
let staged_update ~resolve_file text =
  let load = ref None in
  let cmds = ref [] in
  let push c = cmds := !cmds @ [ c ] in
  List.iter
    (fun cmd ->
      match cmd with
      | Controller.Command.Load { file; func_name } ->
        load := Some (func_name, Rp4.Parser.parse_string (resolve_file file))
      | Controller.Command.Add_link (a, b) -> push (Rp4bc.Compile.Add_link (a, b))
      | Controller.Command.Del_link (a, b) -> push (Rp4bc.Compile.Del_link (a, b))
      | Controller.Command.Link_header { pre; next; tag } ->
        push (Rp4bc.Compile.Link_hdr (pre, tag, next))
      | Controller.Command.Unlink_header { pre; next } ->
        push (Rp4bc.Compile.Unlink_hdr (pre, next))
      | Controller.Command.Set_entry { pipe; stage } ->
        let p =
          if pipe = "egress" then Rp4bc.Compile.Pipe_egress
          else Rp4bc.Compile.Pipe_ingress
        in
        push (Rp4bc.Compile.Set_entry (p, stage))
      | Controller.Command.Commit | Controller.Command.Unload _
      | Controller.Command.Table_add _ | Controller.Command.Table_del _
      | Controller.Command.Protect _ | Controller.Command.Show_impact
      | Controller.Command.Show_mapping | Controller.Command.Show_design
      | Controller.Command.Virtualize _ | Controller.Command.Devirtualize _
      | Controller.Command.Pin _ | Controller.Command.Show_virt -> ())
    (Controller.Command.parse_script text);
  match !load with
  | Some (func_name, snippet) -> (func_name, snippet, !cmds)
  | None -> ("__links__", Rp4.Ast.empty_program, !cmds)

let check_update_source ~ntsps ~resolve_file ~script source : outcome =
  let opts = { Rp4bc.Compile.default_options with Rp4bc.Compile.ntsps } in
  let prog = Rp4.Parser.parse_string source in
  let pool = Ipsa.Device.default_pool () in
  match Rp4bc.Compile.compile_full ~opts ~pool prog with
  | Error errs -> Error errs
  | Ok base -> (
    let func_name, snippet, cmds = staged_update ~resolve_file script in
    match
      Analysis.Check.check_update base.Rp4bc.Compile.design ~snippet ~func_name
        ~cmds ()
    with
    | Error errs -> Error errs
    | Ok (_result, diags) -> Ok diags)

(* --- symbolic / impact sections ---------------------------------------- *)

(* The designs a check run is about: the full compile of FILE.rp4, plus
   the post-update design when --script replays an update on top. *)
let designs_for ~ntsps ~resolve_file ~script source :
    (Rp4bc.Design.t * Rp4bc.Design.t option, string list) result =
  let opts = { Rp4bc.Compile.default_options with Rp4bc.Compile.ntsps } in
  let pool = Ipsa.Device.default_pool () in
  match Rp4bc.Compile.compile_full ~opts ~pool (Rp4.Parser.parse_string source) with
  | Error errs -> Error errs
  | Ok base -> (
    match script with
    | None -> Ok (base.Rp4bc.Compile.design, None)
    | Some text -> (
      let func_name, snippet, cmds = staged_update ~resolve_file text in
      match
        Rp4bc.Compile.insert_function base.Rp4bc.Compile.design ~snippet ~func_name
          ~cmds ~algo:Rp4bc.Layout.Dp ~pool
      with
      | Error errs -> Error errs
      | Ok r -> Ok (base.Rp4bc.Compile.design, Some r.Rp4bc.Compile.design)))

let symbolic_json (r : Analysis.Symexec.result) =
  let module J = Prelude.Json in
  let sset s = J.List (List.map (fun x -> J.String x) (List.sort compare s)) in
  J.Obj
    [
      ("paths", J.Int r.Analysis.Symexec.r_paths);
      ( "reached_stages",
        sset (Analysis.Symexec.SS.elements r.Analysis.Symexec.r_reached) );
      ( "applied_tables",
        sset (Analysis.Symexec.SS.elements r.Analysis.Symexec.r_applied) );
      ( "classes",
        J.Obj
          (List.map
             (fun (stage, classes) ->
               ( stage,
                 J.List
                   (List.map
                      (fun atoms ->
                        J.List (List.map Analysis.Symexec.atom_to_json atoms))
                      classes) ))
             r.Analysis.Symexec.r_classes) );
      ( "flat_gaps",
        J.List
          (List.map
             (fun (stage, reason) ->
               J.Obj [ ("stage", J.String stage); ("reason", J.String reason) ])
             r.Analysis.Symexec.r_flat_gaps) );
    ]

let print_symbolic (r : Analysis.Symexec.result) =
  Printf.printf "== symbolic coverage ==\n";
  Printf.printf "paths explored: %d\n" r.Analysis.Symexec.r_paths;
  Printf.printf "stages reached: %s\n"
    (String.concat ", "
       (List.sort compare (Analysis.Symexec.SS.elements r.Analysis.Symexec.r_reached)));
  Printf.printf "tables applied: %s\n"
    (String.concat ", "
       (List.sort compare (Analysis.Symexec.SS.elements r.Analysis.Symexec.r_applied)));
  List.iter
    (fun (stage, classes) ->
      Printf.printf "traffic classes at %s:\n" stage;
      List.iter
        (fun atoms ->
          Printf.printf "  - %s\n"
            (match atoms with
            | [] -> "any packet"
            | _ -> String.concat " && " (List.map Analysis.Symexec.atom_to_string atoms)))
        classes)
    r.Analysis.Symexec.r_classes;
  List.iter
    (fun (stage, reason) -> Printf.printf "off flat path: %s (%s)\n" stage reason)
    r.Analysis.Symexec.r_flat_gaps

let outcome_json = function
  | Ok diags -> Analysis.Diag.report_to_json diags
  | Error errs ->
    Prelude.Json.Obj
      [
        ( "compile_errors",
          Prelude.Json.List (List.map (fun e -> Prelude.Json.String e) errs) );
      ]

(* Render the named outcomes and say whether any of them failed. *)
let report_outcomes ~json (runs : (string * outcome) list) : bool =
  if json then begin
    print_endline
      (Prelude.Json.to_string_pretty
         (Prelude.Json.Obj (List.map (fun (n, o) -> (n, outcome_json o)) runs)))
  end
  else
    List.iter
      (fun (name, outcome) ->
        Printf.printf "== %s ==\n" name;
        (match outcome with
        | Error errs ->
          List.iter (fun e -> Printf.printf "compile error: %s\n" e) errs
        | Ok [] -> print_endline "ok: no findings"
        | Ok diags ->
          print_endline (Analysis.Diag.render_table diags);
          Printf.printf "%d error(s), %d warning(s)\n"
            (List.length (Analysis.Diag.errors diags))
            (List.length (Analysis.Diag.warnings diags)));
        print_newline ())
      runs;
  List.exists
    (fun (_, o) ->
      match o with Error _ -> true | Ok diags -> Analysis.Diag.has_errors diags)
    runs

(* The bundled usecases, base designs and update scripts alike. *)
let usecase_runs ~ntsps : (string * outcome) list =
  let resolve name =
    match Filename.basename name with
    | "ecmp.rp4" -> Usecases.Ecmp.source
    | "srv6.rp4" -> Usecases.Srv6.source
    | "probe.rp4" -> Usecases.Flowprobe.source
    | other -> invalid_arg ("unknown usecase snippet " ^ other)
  in
  let update script = check_update_source ~ntsps ~resolve_file:resolve ~script in
  [
    ("base_l23", check_prog ~ntsps (Rp4.Parser.parse_string Usecases.Base_l23.source));
    ( "base_split",
      check_prog ~ntsps (Rp4.Parser.parse_string Usecases.Base_split.source) );
    ( "p4_base (fc-translated)",
      check_prog ~ntsps
        (Rp4fc.Translate.translate
           (P4lite.Parser.parse_string Usecases.P4_base.source)) );
    ("base_l23 + ecmp", update Usecases.Ecmp.script Usecases.Base_l23.source);
    ("base_l23 + srv6", update Usecases.Srv6.script Usecases.Base_l23.source);
    ( "base_l23 + flow_probe",
      update Usecases.Flowprobe.script Usecases.Base_l23.source );
  ]

let check_cmd =
  let file = Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE.rp4") in
  let script =
    Arg.(
      value
      & opt (some file) None
      & info [ "script" ] ~docv:"SCRIPT"
          ~doc:
            "Replay an update $(docv) against the base design and lint the \
             resulting patch. Snippet files named by the script's load commands \
             resolve relative to the script's directory.")
  in
  let ntsps =
    Arg.(value & opt int 8 & info [ "ntsps" ] ~doc:"number of physical TSPs")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"emit the report as JSON")
  in
  let usecases =
    Arg.(
      value & flag
      & info [ "usecases" ]
          ~doc:"check every bundled usecase (base designs and update scripts)")
  in
  let symbolic =
    Arg.(
      value & flag
      & info [ "symbolic" ]
          ~doc:
            "Also run the symbolic walker over the (updated, with --script) \
             design and report path coverage: stages reached, tables applied, \
             the traffic classes at each stage, and any stages off the flat \
             fast path. Needs $(b,FILE.rp4).")
  in
  let impact =
    Arg.(
      value & flag
      & info [ "impact" ]
          ~doc:
            "Also compute the update's blast radius: the symbolic traffic \
             classes whose forwarding the patch changes. Needs $(b,FILE.rp4) \
             and $(b,--script).")
  in
  let run file script ntsps json usecases symbolic impact =
    try
      let runs =
        if usecases then usecase_runs ~ntsps
        else
          match file with
          | None -> invalid_arg "check: need FILE.rp4 (or --usecases)"
          | Some f -> (
            match script with
            | None -> [ (f, check_prog ~ntsps (Rp4.Parser.parse_string (read_file f))) ]
            | Some s ->
              let dir = Filename.dirname s in
              let resolve_file name =
                read_file
                  (if Filename.is_relative name then Filename.concat dir name
                   else name)
              in
              [
                ( Printf.sprintf "%s + %s" f s,
                  check_update_source ~ntsps ~resolve_file ~script:(read_file s)
                    (read_file f) );
              ])
      in
      (* Optional deep-analysis sections. A compile failure is already in
         the report above, so the sections just go missing in that case. *)
      let sym, imp =
        if not (symbolic || impact) then (None, None)
        else
          match file with
          | None -> invalid_arg "check: --symbolic/--impact need FILE.rp4"
          | Some f -> (
            if impact && script = None then
              invalid_arg "check: --impact needs --script";
            let script_text, resolve_file =
              match script with
              | None -> (None, fun name -> read_file name)
              | Some s ->
                let dir = Filename.dirname s in
                ( Some (read_file s),
                  fun name ->
                    read_file
                      (if Filename.is_relative name then Filename.concat dir name
                       else name) )
            in
            match
              designs_for ~ntsps ~resolve_file ~script:script_text (read_file f)
            with
            | Error _ -> (None, None)
            | Ok (base, updated) ->
              ( (if symbolic then
                   Some
                     (Analysis.Check.symbolic
                        (Option.value updated ~default:base))
                 else None),
                match (impact, updated) with
                | true, Some upd ->
                  Some (Analysis.Check.impact ~old_design:base ~design:upd ())
                | _ -> None ))
      in
      let failed =
        if json then begin
          let runs_json = List.map (fun (n, o) -> (n, outcome_json o)) runs in
          let extra =
            (match sym with
            | Some r -> [ ("symbolic", symbolic_json r) ]
            | None -> [])
            @
            match imp with
            | Some rep -> [ ("impact", Analysis.Impact.to_json rep) ]
            | None -> []
          in
          print_endline
            (Prelude.Json.to_string_pretty (Prelude.Json.Obj (runs_json @ extra)));
          List.exists
            (fun (_, o) ->
              match o with
              | Error _ -> true
              | Ok diags -> Analysis.Diag.has_errors diags)
            runs
        end
        else begin
          let failed = report_outcomes ~json:false runs in
          Option.iter print_symbolic sym;
          Option.iter
            (fun rep ->
              Printf.printf "== impact ==\n%s\n" (Analysis.Impact.summary rep))
            imp;
          failed
        end
      in
      if failed then `Error (false, "check failed: the report contains errors")
      else `Ok ()
    with
    | Rp4.Parser.Error e | Rp4.Lexer.Error e -> `Error (false, e)
    | P4lite.Parser.Error e -> `Error (false, e)
    | Invalid_argument e | Sys_error e -> `Error (false, e)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "rp4lint: verify parse-before-use dataflow, TSP merge independence and \
          in-situ update safety")
    Term.(
      ret
        (const run $ file $ script $ ntsps $ json $ usecases $ symbolic $ impact))

(* --- stats ------------------------------------------------------------- *)

(* Boot a design on a telemetry-enabled device, push synthetic traffic
   through it and render the metrics registry. Without FILE the bundled
   base_l23 design and its population script are used, with traffic
   cycling the canonical flows so every table family records hits. *)

let bundled_resolve name =
  match Filename.basename name with
  | "ecmp.rp4" -> Usecases.Ecmp.source
  | "srv6.rp4" -> Usecases.Srv6.source
  | "probe.rp4" -> Usecases.Flowprobe.source
  | other -> invalid_arg ("unknown usecase snippet " ^ other)

let bundled_packet i =
  match i mod 4 with
  | 0 -> Net.Flowgen.ipv4_udp ~in_port:0 Usecases.Base_l23.routed_v4_flow
  | 1 -> Net.Flowgen.ipv4_udp ~in_port:0 Usecases.Base_l23.host_route_v4_flow
  | 2 -> Net.Flowgen.ipv6_udp ~in_port:1 Usecases.Base_l23.routed_v6_flow
  | _ -> Net.Flowgen.l2 ~in_port:5 Usecases.Base_l23.bridged_flow

(* Each bundled use case: the in-situ update script (base -> updated
   design), the new tables' population, and a demo traffic profile that
   exercises the loaded function. *)
let bundled_usecase = function
  | "c1" | "ecmp" ->
    ( Usecases.Ecmp.script ^ "\n" ^ Usecases.Ecmp.population,
      Usecases.Ecmp.demo_packet )
  | "c2" | "srv6" ->
    ( Usecases.Srv6.script ^ "\n" ^ Usecases.Srv6.population,
      Usecases.Srv6.demo_packet )
  | "c3" | "flowprobe" | "probe" ->
    ( Usecases.Flowprobe.script ^ "\n" ^ Usecases.Flowprobe.population,
      Usecases.Flowprobe.demo_packet )
  | other -> invalid_arg ("unknown usecase " ^ other ^ " (c1 | c2 | c3)")

let render_metrics tel =
  let module T = Prelude.Texttab in
  let int_rows kvs = List.map (fun (k, v) -> [ k; string_of_int v ]) kvs in
  print_endline "== counters ==";
  T.print ~aligns:[| T.Left; T.Right |] ~header:[ "counter"; "value" ]
    (int_rows (Telemetry.counters tel));
  print_endline "\n== gauges ==";
  T.print ~aligns:[| T.Left; T.Right |] ~header:[ "gauge"; "value" ]
    (int_rows (Telemetry.gauges tel));
  match Telemetry.histograms tel with
  | [] -> ()
  | hs ->
    print_endline "\n== histograms ==";
    T.print
      ~aligns:[| T.Left; T.Right; T.Right; T.Left |]
      ~header:[ "histogram"; "count"; "sum"; "buckets (le:n, non-empty)" ]
      (List.map
         (fun (k, h) ->
           let buckets =
             Telemetry.Histogram.buckets h
             |> List.filter (fun (_, n) -> n > 0)
             |> List.map (fun (le, n) ->
                    Printf.sprintf "%s:%d"
                      (match le with Some b -> string_of_int b | None -> "+Inf")
                      n)
             |> String.concat " "
           in
           [
             k;
             string_of_int (Telemetry.Histogram.count h);
             string_of_int (Telemetry.Histogram.sum h);
             buckets;
           ])
         hs)

let render_trace trace =
  let module T = Prelude.Texttab in
  print_endline "\n== packet trace ==";
  T.print
    ~aligns:[| T.Right; T.Left; T.Left; T.Left; T.Left; T.Right; T.Right |]
    ~header:Telemetry.Trace.header
    (List.map Telemetry.Trace.span_to_row (Telemetry.Trace.spans trace))

let stats_cmd =
  let file = Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE.rp4") in
  let populate =
    Arg.(
      value
      & opt (some file) None
      & info [ "populate" ] ~docv:"SCRIPT"
          ~doc:
            "Controller script (table_add / load / commit commands) run after \
             boot, before traffic. Without $(b,FILE.rp4) it runs on top of the \
             bundled base design and its population.")
  in
  let usecase =
    Arg.(
      value
      & opt (some string) None
      & info [ "usecase" ] ~docv:"CASE"
          ~doc:
            "Apply a bundled in-situ update (c1 | c2 | c3) to the base design \
             and drive demo traffic through the loaded function. Only \
             meaningful without $(b,FILE.rp4).")
  in
  let packets =
    Arg.(value & opt int 64 & info [ "packets" ] ~doc:"synthetic packets to inject")
  in
  let batch =
    Arg.(
      value & opt int 0
      & info [ "batch" ] ~docv:"N"
          ~doc:
            "drive traffic through the batched fast path ($(b,inject_batch)) \
             in chunks of $(docv) packets instead of one-at-a-time injection; \
             0 disables batching")
  in
  let virt =
    Arg.(
      value
      & opt ~vopt:(Some 100) (some int) None
      & info [ "virt" ] ~docv:"PCT"
          ~doc:
            "Virtualize every table before traffic, capping its hot tier at \
             $(docv)%% of its populated entry count (default 100), and report \
             per-table tier residency and hit/miss statistics")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"flow generator seed (with FILE.rp4)")
  in
  let ntsps =
    Arg.(value & opt int 8 & info [ "ntsps" ] ~doc:"number of physical TSPs")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"emit the metrics snapshot as JSON")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:"inject one extra packet with a stage tracer and dump its per-TSP trace")
  in
  let run file populate usecase packets batch virt seed ntsps json trace =
    try
      let tel = Telemetry.create () in
      let device = Ipsa.Device.create ~telemetry:tel ~ntsps () in
      let source, population, resolve_file, packet_of =
        match file with
        | None ->
          let case_script, case_packet =
            match usecase with
            | Some c ->
              let script, pkt = bundled_usecase c in
              ([ script ], pkt)
            | None -> ([], bundled_packet)
          in
          let scripts =
            (Usecases.Base_l23.population :: case_script)
            @ match populate with Some s -> [ read_file s ] | None -> []
          in
          ( Usecases.Base_l23.source,
            Some (String.concat "\n" scripts),
            bundled_resolve,
            case_packet )
        | Some f ->
          let resolve_file name =
            let dir =
              match populate with Some s -> Filename.dirname s | None -> Filename.dirname f
            in
            read_file (if Filename.is_relative name then Filename.concat dir name else name)
          in
          let stream = Net.Flowgen.mixed_stream ~seed ~n:(max packets 1) ~nflows:8 () in
          let arr = Array.of_list stream in
          (read_file f, Option.map read_file populate, resolve_file,
           fun i -> arr.(i mod Array.length arr))
      in
      match Controller.Session.boot ~resolve_file ~source device with
      | Error errs -> `Error (false, String.concat "\n" errs)
      | Ok session -> (
        let populated =
          match population with
          | None -> Ok ()
          | Some script -> (
            match Controller.Session.run_script session script with
            | Ok _ -> Ok ()
            | Error e -> Error e)
        in
        match populated with
        | Error e -> `Error (false, e)
        | Ok () ->
          (* Tiered-table mode: cap every populated table's hot tier at the
             requested residency before traffic flows. *)
          (match virt with
          | None -> ()
          | Some pct ->
            if pct <= 0 || pct > 100 then invalid_arg "stats: --virt wants 1..100";
            List.iter
              (fun name ->
                match Ipsa.Device.find_table device name with
                | Some tb ->
                  let cap = max 1 (Table.entry_count tb * pct / 100) in
                  Table.virtualize tb ~capacity:cap
                | None -> ())
              (Ipsa.Device.table_names device));
          if batch > 0 then begin
            let i = ref 0 in
            while !i < packets do
              let n = min batch (packets - !i) in
              let chunk = Array.init n (fun j -> packet_of (!i + j)) in
              ignore (Ipsa.Device.inject_batch device chunk);
              i := !i + n
            done
          end
          else
            for i = 0 to packets - 1 do
              ignore (Ipsa.Device.inject device (packet_of i))
            done;
          let traced =
            if trace then Some (snd (Ipsa.Device.inject_traced device (packet_of 0)))
            else None
          in
          Ipsa.Device.refresh_telemetry device;
          let tel = Controller.Session.metrics session in
          if json then begin
            let metrics = Telemetry.to_json tel in
            let virt_field =
              if virt = None then []
              else
                let module J = Prelude.Json in
                [
                  ( "virt",
                    J.List
                      (List.map
                         (fun (name, entries, ts) ->
                           J.Obj
                             [
                               ("table", J.String name);
                               ("entries", J.Int entries);
                               ("capacity", J.Int ts.Table.ts_capacity);
                               ("resident", J.Int ts.Table.ts_resident);
                               ("pinned", J.Int ts.Table.ts_pinned);
                               ("hits", J.Int ts.Table.ts_hits);
                               ("misses", J.Int ts.Table.ts_misses);
                               ("promotions", J.Int ts.Table.ts_promotions);
                               ("evictions", J.Int ts.Table.ts_evictions);
                             ])
                         (Ipsa.Device.virt_tables device)) );
                ]
            in
            let out =
              match (metrics, traced) with
              | Prelude.Json.Obj fields, Some tr ->
                Prelude.Json.Obj
                  (fields @ virt_field
                  @ [ ("trace", Telemetry.Trace.to_json tr) ])
              | Prelude.Json.Obj fields, None ->
                Prelude.Json.Obj (fields @ virt_field)
              | _, _ -> metrics
            in
            print_endline (Prelude.Json.to_string_pretty out)
          end
          else begin
            if virt <> None then begin
              print_endline "== virtualized tables ==";
              print_endline (Controller.Runtime.virt_summary ~device);
              print_newline ()
            end;
            render_metrics tel;
            Option.iter render_trace traced
          end;
          `Ok ())
    with
    | Rp4.Parser.Error e | Rp4.Lexer.Error e -> `Error (false, e)
    | Invalid_argument e | Sys_error e -> `Error (false, e)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "run synthetic traffic through a telemetry-enabled device and report \
          the metrics registry (counters, gauges, histograms, optional \
          per-packet stage trace)")
    Term.(
      ret
        (const run $ file $ populate $ usecase $ packets $ batch $ virt
       $ seed $ ntsps $ json $ trace))

let () =
  let doc = "rP4 compiler tool-chain (front end, back end, incremental patches)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "rp4c" ~doc)
          [ fc_cmd; bc_cmd; patch_cmd; check_cmd; stats_cmd ]))
