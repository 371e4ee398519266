(* Controller session: the command-line controller of Sec. 4.1, "allowing
   users to load or offload on-demand protocols and functions at runtime".

   A session owns the current base design and a connected ipbm device.
   [load]/[add_link]/[del_link]/[link_header] accumulate one update
   transaction; [commit] runs rp4bc's incremental compiler and pushes the
   resulting patch through the device's control channel, recording both
   the compile time (t_C) and the loading report (t_L inputs) that Table 1
   compares. *)

type timing = {
  compile_ns : float; (* measured wall time of the rp4bc run *)
  load_ns : float; (* measured wall time of the device patch application *)
  compile_stats : Rp4bc.Compile.stats;
  load_report : Ipsa.Device.load_report;
}

(* Session-level telemetry: control-plane activity, registered against the
   device's metrics registry so [rp4c stats] reports data and control plane
   side by side. *)
type instruments = {
  s_compiles : Telemetry.Counter.t; (* rp4bc runs (boot, commit, prepare, unload) *)
  s_patches : Telemetry.Counter.t; (* patches successfully applied *)
  s_warnings : Telemetry.Counter.t; (* rp4lint warnings across compiles *)
  s_ops_make : Telemetry.Counter.t; (* make-before-break split of patch ops *)
  s_ops_break : Telemetry.Counter.t;
}

type t = {
  mutable design : Rp4bc.Design.t;
  device : Ipsa.Device.t;
  resolve_file : string -> string; (* rP4 snippet source by file name *)
  algo : Rp4bc.Layout.algo;
  mutable pending_load : (string * Rp4.Ast.program) option; (* func, snippet *)
  mutable pending_cmds : Rp4bc.Compile.cmd list;
  mutable last_timing : timing option;
  mutable last_warnings : string list; (* rp4lint warnings of the last compile *)
  (* Blast-radius gate: every incremental update's impact report is kept,
     and an update is refused when its radius intersects a protected
     prefix (traffic the operator declared must not change behavior). *)
  mutable protected_prefixes : Analysis.Impact.prefix list;
  mutable last_impact : Analysis.Impact.report option;
  instr : instruments;
}

let now_ns () = 1e9 *. Unix.gettimeofday ()

(* Every compile a session runs goes through the rp4lint verifier: a
   design or patch with errors never reaches the device; warnings are
   kept for the operator. The verifier shares the device's telemetry
   registry (analysis.findings / analysis.pass_duration_us) and sharpens
   table feasibility with the device's live entries. *)
let verify_for device =
  Analysis.Check.verifier
    ~telemetry:(Ipsa.Device.telemetry device)
    ~tables:(Ipsa.Device.find_table device)

let make_instruments tel =
  {
    s_compiles = Telemetry.counter tel "session.compiles";
    s_patches = Telemetry.counter tel "session.patches_applied";
    s_warnings = Telemetry.counter tel "session.warnings";
    s_ops_make = Telemetry.counter tel "session.ops_make";
    s_ops_break = Telemetry.counter tel "session.ops_break";
  }

let note_compile instr warnings =
  Telemetry.Counter.incr instr.s_compiles;
  Telemetry.Counter.add instr.s_warnings (List.length warnings)

let note_patch instr patch =
  Telemetry.Counter.incr instr.s_patches;
  let mk, bk = Ipsa.Config.make_break_counts patch in
  Telemetry.Counter.add instr.s_ops_make mk;
  Telemetry.Counter.add instr.s_ops_break bk

(* Boot: compile the base design with rp4bc's full flow and load it. *)
let boot ?(opts = Rp4bc.Compile.default_options) ?(algo = Rp4bc.Layout.Dp)
    ?(resolve_file = fun f -> invalid_arg ("no such file " ^ f)) ~source device :
    (t, string list) result =

  let prog =
    try Rp4.Parser.parse_string source
    with Rp4.Parser.Error e | Rp4.Lexer.Error e -> raise (Failure e)
  in
  let instr = make_instruments (Ipsa.Device.telemetry device) in
  match
    Rp4bc.Compile.compile_full ~opts ~verify:(verify_for device)
      ~pool:(Ipsa.Device.pool device) prog
  with
  | Error errs -> Error errs
  | Ok compiled -> (
    note_compile instr compiled.Rp4bc.Compile.warnings;
    match Ipsa.Device.apply_patch device compiled.Rp4bc.Compile.patch with
    | Error e -> Error [ e ]
    | Ok _report ->
      note_patch instr compiled.Rp4bc.Compile.patch;
      Ok
        {
          design = compiled.Rp4bc.Compile.design;
          device;
          resolve_file;
          algo;
          pending_load = None;
          pending_cmds = [];
          last_timing = None;
          last_warnings = compiled.Rp4bc.Compile.warnings;
          protected_prefixes = [];
          last_impact = None;
          instr;
        })

let apis t = Runtime.of_design t.design
let design t = t.design
let device t = t.device
let last_timing t = t.last_timing
let last_warnings t = t.last_warnings
let metrics t = Ipsa.Device.telemetry t.device

(* --- blast-radius gating --------------------------------------------- *)

(* Pin a protected prefix into a virtualized table so LRU eviction never
   drops resolutions for traffic the operator declared untouchable —
   the blast-radius gate's reach into the tiering policy. *)
let pin_prefix_into tb (p : Analysis.Impact.prefix) =
  Table.pin tb ~field:p.Analysis.Impact.pf_field ~bits:p.Analysis.Impact.pf_bits
    ~plen:p.Analysis.Impact.pf_plen

let pin_protected_everywhere t =
  List.iter
    (fun (name, _, _) ->
      match Ipsa.Device.find_table t.device name with
      | Some tb ->
        List.iter (fun p -> ignore (pin_prefix_into tb p)) t.protected_prefixes
      | None -> ())
    (Ipsa.Device.virt_tables t.device)

let protect t spec : (unit, string) result =
  match Analysis.Impact.prefix_of_string spec with
  | Error e -> Error e
  | Ok pfx ->
    t.protected_prefixes <- t.protected_prefixes @ [ pfx ];
    (* Already-virtualized tables learn the new pin immediately. *)
    pin_protected_everywhere t;
    Ok ()

let unprotect_all t = t.protected_prefixes <- []
let protected_prefixes t = t.protected_prefixes
let last_impact t = t.last_impact

(* Symbolic blast radius of moving the session from [old_design] to
   [design], sharpened with the device's live table contents. *)
let compute_impact t ~old_design ~design =
  let tables = Ipsa.Device.find_table t.device in
  Analysis.Check.impact ~telemetry:(metrics t) ~tables ~old_tables:tables
    ~old_design ~design ()

(* The gate itself: refuse the update when its radius intersects any
   protected prefix. The report is recorded either way. *)
let gate_impact t (report : Analysis.Impact.report) : (unit, string list) result =
  t.last_impact <- Some report;
  let hits =
    List.filter (fun p -> Analysis.Impact.intersects report p) t.protected_prefixes
  in
  if hits = [] then Ok ()
  else
    Error
      (List.map
         (fun p ->
           Printf.sprintf
             "update refused: blast radius intersects protected prefix %s (%s)"
             (Analysis.Impact.prefix_to_string p)
             (Analysis.Impact.summary report))
         hits)

(* --- table virtualization -------------------------------------------- *)

(* Cap [table]'s in-pool hot tier at [capacity] resolutions; the full
   contents stay authoritative (conceptually controller-side), and the
   session's protected prefixes are pinned so the gate's guarantees
   survive eviction. *)
let virtualize t ~table ~capacity : (unit, string) result =
  match Ipsa.Device.find_table t.device table with
  | None -> Error (Printf.sprintf "no such table %s" table)
  | Some tb ->
    if capacity < 0 then Error "virtualize: capacity must be >= 0"
    else begin
      Table.virtualize tb ~capacity;
      List.iter (fun p -> ignore (pin_prefix_into tb p)) t.protected_prefixes;
      Ipsa.Device.refresh_telemetry t.device;
      Ok ()
    end

let devirtualize t ~table : (unit, string) result =
  match Ipsa.Device.find_table t.device table with
  | None -> Error (Printf.sprintf "no such table %s" table)
  | Some tb ->
    Table.devirtualize tb;
    Ipsa.Device.refresh_telemetry t.device;
    Ok ()

let pin t ~table ~spec : (unit, string) result =
  match Ipsa.Device.find_table t.device table with
  | None -> Error (Printf.sprintf "no such table %s" table)
  | Some tb -> (
    match Analysis.Impact.prefix_of_string spec with
    | Error e -> Error e
    | Ok p ->
      if pin_prefix_into tb p then Ok ()
      else
        Error
          (Printf.sprintf
             "pin: table %s is not virtualized or %s is not a key field" table
             p.Analysis.Impact.pf_field))

(* --- pre-compiled updates -------------------------------------------- *)

(* Sec. 4.3: "In cases the incremental updates can be pre-compiled, t_L
   will dominate the performance." [prepare] runs rp4bc on the pending
   transaction without touching the device; [apply_prepared] pushes the
   stored patch later, so the in-service disruption is pure loading. *)

type prepared = {
  pre_result : Rp4bc.Compile.result_t;
  pre_compile_ns : float;
  pre_base : Rp4bc.Design.t; (* design the patch was compiled against *)
  pre_impact : Analysis.Impact.report; (* blast radius vs. [pre_base] *)
}

let compile_pending t : (Rp4bc.Compile.result_t, string list) result =
  match t.pending_load with
  | Some (func_name, snippet) ->
    Rp4bc.Compile.insert_function ~verify:(verify_for t.device) t.design ~snippet
      ~func_name ~cmds:t.pending_cmds ~algo:t.algo ~pool:(Ipsa.Device.pool t.device)
  | None -> (
    (* Pure link edits without a new function. *)
    match t.pending_cmds with
    | [] -> Error [ "commit: nothing pending" ]
    | cmds ->
      Rp4bc.Compile.insert_function ~verify:(verify_for t.device) t.design
        ~snippet:Rp4.Ast.empty_program ~func_name:"__links__" ~cmds ~algo:t.algo
        ~pool:(Ipsa.Device.pool t.device))

(* Drop the staged (uncommitted) transaction: the escape hatch a
   dry-run consumer (the service's [check] endpoint) uses after a
   failed staging or prepare, so leftovers never leak into the next
   transaction. *)
let discard t =
  t.pending_load <- None;
  t.pending_cmds <- []

(* Configuration volume of a prepared patch — what a fleet controller
   charges against the control-channel bandwidth when it sizes the
   in-service window of a rolling rollout. *)
let prepared_bytes (p : prepared) =
  Ipsa.Config.byte_size p.pre_result.Rp4bc.Compile.patch

let prepare t : (prepared, string list) result =
  let start = now_ns () in
  match compile_pending t with
  | Error errs -> Error errs
  | Ok result ->
    note_compile t.instr result.Rp4bc.Compile.warnings;
    let impact =
      compute_impact t ~old_design:t.design ~design:result.Rp4bc.Compile.design
    in
    t.last_impact <- Some impact;
    t.pending_load <- None;
    t.pending_cmds <- [];
    Ok
      {
        pre_result = result;
        pre_compile_ns = now_ns () -. start;
        pre_base = t.design;
        pre_impact = impact;
      }

let prepared_impact (p : prepared) = p.pre_impact

let apply_prepared t (p : prepared) : (timing, string list) result =
  if p.pre_base != t.design then
    Error [ "apply_prepared: the base design changed since this patch was compiled" ]
  else begin
    match gate_impact t p.pre_impact with
    | Error errs -> Error errs
    | Ok () ->
    let load_start = now_ns () in
    match
      Ipsa.Device.apply_patch t.device p.pre_result.Rp4bc.Compile.patch
    with
    | Error e -> Error [ e ]
    | Ok report ->
      note_patch t.instr p.pre_result.Rp4bc.Compile.patch;
      t.design <- p.pre_result.Rp4bc.Compile.design;
      t.last_warnings <- p.pre_result.Rp4bc.Compile.warnings;
      let timing =
        {
          compile_ns = p.pre_compile_ns;
          load_ns = now_ns () -. load_start;
          compile_stats = p.pre_result.Rp4bc.Compile.stats;
          load_report = report;
        }
      in
      t.last_timing <- Some timing;
      Ok timing
  end

(* Compile the pending transaction and push it to the device. *)
let commit t : (timing, string list) result =
  let start = now_ns () in
  let compiled = compile_pending t in
  match compiled with
  | Error errs -> Error errs
  | Ok result -> (
    note_compile t.instr result.Rp4bc.Compile.warnings;
    let compile_ns = now_ns () -. start in
    let impact =
      compute_impact t ~old_design:t.design ~design:result.Rp4bc.Compile.design
    in
    match gate_impact t impact with
    | Error errs -> Error errs
    | Ok () ->
    let load_start = now_ns () in
    match
      Ipsa.Device.apply_patch t.device result.Rp4bc.Compile.patch
    with
    | Error e -> Error [ e ]
    | Ok report ->
      note_patch t.instr result.Rp4bc.Compile.patch;
      t.design <- result.Rp4bc.Compile.design;
      t.pending_load <- None;
      t.pending_cmds <- [];
      t.last_warnings <- result.Rp4bc.Compile.warnings;
      let timing =
        {
          compile_ns;
          load_ns = now_ns () -. load_start;
          compile_stats = result.Rp4bc.Compile.stats;
          load_report = report;
        }
      in
      t.last_timing <- Some timing;
      Ok timing)

let unload t ~func_name : (timing, string list) result =
  let start = now_ns () in
  match
    Rp4bc.Compile.delete_function ~verify:(verify_for t.device) t.design ~func_name
      ~algo:t.algo ~pool:(Ipsa.Device.pool t.device)
  with
  | Error errs -> Error errs
  | Ok result -> (
    note_compile t.instr result.Rp4bc.Compile.warnings;
    let compile_ns = now_ns () -. start in
    let impact =
      compute_impact t ~old_design:t.design ~design:result.Rp4bc.Compile.design
    in
    match gate_impact t impact with
    | Error errs -> Error errs
    | Ok () ->
    let load_start = now_ns () in
    match
      Ipsa.Device.apply_patch t.device result.Rp4bc.Compile.patch
    with
    | Error e -> Error [ e ]
    | Ok report ->
      note_patch t.instr result.Rp4bc.Compile.patch;
      t.design <- result.Rp4bc.Compile.design;
      t.last_warnings <- result.Rp4bc.Compile.warnings;
      let timing =
        { compile_ns; load_ns = now_ns () -. load_start;
          compile_stats = result.Rp4bc.Compile.stats; load_report = report }
      in
      t.last_timing <- Some timing;
      Ok timing)

(* Execute one controller command; returns the textual response. *)
let exec t (cmd : Command.t) : (string, string) result =
  match cmd with
  | Command.Load { file; func_name } -> (
    try
      let src = t.resolve_file file in
      let snippet = Rp4.Parser.parse_string src in
      t.pending_load <- Some (func_name, snippet);
      Ok (Printf.sprintf "staged function %s from %s" func_name file)
    with
    | Rp4.Parser.Error e | Rp4.Lexer.Error e -> Error e
    | Invalid_argument e -> Error e)
  | Command.Add_link (a, b) ->
    t.pending_cmds <- t.pending_cmds @ [ Rp4bc.Compile.Add_link (a, b) ];
    Ok (Printf.sprintf "staged add_link %s -> %s" a b)
  | Command.Del_link (a, b) ->
    t.pending_cmds <- t.pending_cmds @ [ Rp4bc.Compile.Del_link (a, b) ];
    Ok (Printf.sprintf "staged del_link %s -> %s" a b)
  | Command.Link_header { pre; next; tag } ->
    t.pending_cmds <- t.pending_cmds @ [ Rp4bc.Compile.Link_hdr (pre, tag, next) ];
    Ok (Printf.sprintf "staged link_header %s -[%Ld]-> %s" pre tag next)
  | Command.Unlink_header { pre; next } ->
    t.pending_cmds <- t.pending_cmds @ [ Rp4bc.Compile.Unlink_hdr (pre, next) ];
    Ok (Printf.sprintf "staged unlink_header %s -> %s" pre next)
  | Command.Set_entry { pipe; stage } -> (
    match pipe with
    | "ingress" ->
      t.pending_cmds <-
        t.pending_cmds @ [ Rp4bc.Compile.Set_entry (Rp4bc.Compile.Pipe_ingress, stage) ];
      Ok (Printf.sprintf "staged set_entry ingress -> %s" stage)
    | "egress" ->
      t.pending_cmds <-
        t.pending_cmds @ [ Rp4bc.Compile.Set_entry (Rp4bc.Compile.Pipe_egress, stage) ];
      Ok (Printf.sprintf "staged set_entry egress -> %s" stage)
    | other -> Error (Printf.sprintf "set_entry: unknown pipe %S" other))
  | Command.Commit -> (
    match commit t with
    | Ok timing ->
      Ok
        (Printf.sprintf "committed: %d templates rewritten, %d bytes of config"
           timing.compile_stats.Rp4bc.Compile.templates_emitted
           timing.load_report.Ipsa.Device.lr_bytes)
    | Error errs -> Error (String.concat "; " errs))
  | Command.Unload { func_name } -> (
    match unload t ~func_name with
    | Ok timing ->
      Ok
        (Printf.sprintf "unloaded %s: %d tables recycled" func_name
           timing.compile_stats.Rp4bc.Compile.tables_freed)
    | Error errs -> Error (String.concat "; " errs))
  | Command.Table_add { table; action; keys; args } -> (
    match Runtime.table_add ~device:t.device ~apis:(apis t) ~table ~action ~keys ~args with
    | Ok () -> Ok (Printf.sprintf "added entry to %s" table)
    | Error e -> Error e)
  | Command.Table_del { table; keys } -> (
    match Runtime.table_del ~device:t.device ~apis:(apis t) ~table ~keys with
    | Ok () -> Ok (Printf.sprintf "deleted entry from %s" table)
    | Error e -> Error e)
  | Command.Protect spec -> (
    match protect t spec with
    | Ok () -> Ok (Printf.sprintf "protected %s" spec)
    | Error e -> Error e)
  | Command.Virtualize { table; capacity } -> (
    match virtualize t ~table ~capacity with
    | Ok () -> Ok (Printf.sprintf "virtualized %s at capacity %d" table capacity)
    | Error e -> Error e)
  | Command.Devirtualize table -> (
    match devirtualize t ~table with
    | Ok () -> Ok (Printf.sprintf "devirtualized %s" table)
    | Error e -> Error e)
  | Command.Pin { table; spec } -> (
    match pin t ~table ~spec with
    | Ok () -> Ok (Printf.sprintf "pinned %s in %s" spec table)
    | Error e -> Error e)
  | Command.Show_virt -> Ok (Runtime.virt_summary ~device:t.device)
  | Command.Show_impact -> (
    match t.last_impact with
    | Some report -> Ok (Analysis.Impact.summary report)
    | None -> Ok "no impact report: no incremental compile has run")
  | Command.Show_mapping -> Ok (Rp4bc.Design.mapping_to_string t.design)
  | Command.Show_design -> Ok (Rp4bc.Design.to_source t.design)

(* Run a whole script; stops at the first error. *)
let run_script t text : (string list, string) result =
  let cmds = Command.parse_script text in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | cmd :: rest -> (
      match exec t cmd with
      | Ok out -> go (out :: acc) rest
      | Error e -> Error e)
  in
  go [] cmds
