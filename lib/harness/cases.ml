(* Use-case setup shared by the experiments: build each of the paper's
   three updates through both design flows and collect the artifacts the
   experiments need (designs, stats, measured times). *)

let resolve_file = function
  | "ecmp.rp4" -> Usecases.Ecmp.source
  | "srv6.rp4" -> Usecases.Srv6.source
  | "probe.rp4" -> Usecases.Flowprobe.source
  | other -> invalid_arg ("no such file " ^ other)

let script_of = function
  | Paper.C1 -> Usecases.Ecmp.script
  | Paper.C2 -> Usecases.Srv6.script
  | Paper.C3 -> Usecases.Flowprobe.script

let population_of = function
  | Paper.C1 -> Usecases.Ecmp.population
  | Paper.C2 -> Usecases.Srv6.population
  | Paper.C3 -> Usecases.Flowprobe.population

let p4_source_of = function
  | Paper.C1 -> Usecases.P4_base.source_with_ecmp
  | Paper.C2 -> Usecases.P4_base.source_with_srv6
  | Paper.C3 -> Usecases.P4_base.source_with_probe

exception Setup_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Setup_error s)) fmt

let boot_base ?telemetry ?(algo = Rp4bc.Layout.Dp) () =
  let device = Ipsa.Device.create ?telemetry ~ntsps:8 () in
  match Controller.Session.boot ~algo ~resolve_file ~source:Usecases.Base_l23.source device with
  | Error errs -> fail "boot: %s" (String.concat "; " errs)
  | Ok session -> (
    match Controller.Session.run_script session Usecases.Base_l23.population with
    | Error e -> fail "population: %s" e
    | Ok _ -> (session, device))

(* rP4 flow: apply use case [c] in-situ; returns the session (now holding
   the updated design) and the measured timing. *)
let apply_case ?algo session c =
  ignore algo;
  (match Controller.Session.run_script session (script_of c) with
  | Error e -> fail "script %s: %s" (Paper.case_name c) e
  | Ok _ -> ());
  (match Controller.Session.run_script session (population_of c) with
  | Error e -> fail "population %s: %s" (Paper.case_name c) e
  | Ok _ -> ());
  match Controller.Session.last_timing session with
  | Some t -> t
  | None -> fail "no timing for %s" (Paper.case_name c)

let ipsa_case ?algo c =
  let session, device = boot_base ?algo () in
  let timing = apply_case session c in
  (session, device, timing)

(* P4 flow: full recompile of base+case, installed on the PISA baseline.
   Returns the compiled design plus measured compile and load times. *)
type pisa_run = {
  pr_design : Rp4bc.Design.t;
  pr_compile_ms : float;
  pr_load_ms : float;
  pr_entries : int;
}

let now_ms () = 1000.0 *. Unix.gettimeofday ()

let pisa_population c =
  (* full repopulation of the updated design's tables *)
  let base =
    match c with
    | Paper.C1 ->
      (* the nexthop stage is gone under ECMP *)
      String.split_on_char '\n' Usecases.Base_l23.population
      |> List.filter (fun l ->
             not (String.length l > 18 && String.sub l 10 7 = "nexthop"))
      |> String.concat "\n"
    | _ -> Usecases.Base_l23.population
  in
  base ^ "\n" ^ population_of c

let pisa_case c =
  let t0 = now_ms () in
  let p4 = P4lite.Parser.parse_string (p4_source_of c) in
  let rp4_prog = Rp4fc.Translate.translate p4 in
  let pool = Ipsa.Device.default_pool () in
  let compiled =
    match Rp4bc.Compile.compile_full ~pool rp4_prog with
    | Ok c -> c
    | Error errs -> fail "pisa compile: %s" (String.concat "; " errs)
  in
  let compile_ms = now_ms () -. t0 in
  let device = Pisa.Device.create ~nstages:8 () in
  let t1 = now_ms () in
  (match Pisa.Deploy.install device compiled.Rp4bc.Compile.design with
  | Ok _ -> ()
  | Error e -> fail "pisa install: %s" e);
  let entries =
    match Pisa.Deploy.populate device compiled.Rp4bc.Compile.design (pisa_population c) with
    | Ok n -> n
    | Error e -> fail "pisa populate: %s" e
  in
  let load_ms = now_ms () -. t1 in
  ( device,
    {
      pr_design = compiled.Rp4bc.Compile.design;
      pr_compile_ms = compile_ms;
      pr_load_ms = load_ms;
      pr_entries = entries;
    } )

(* Full-compile stats of the updated whole design (for the FPGA model's
   synthesis-work estimate). *)
let full_stats c =
  let p4 = P4lite.Parser.parse_string (p4_source_of c) in
  let rp4_prog = Rp4fc.Translate.translate p4 in
  let pool = Ipsa.Device.default_pool () in
  match Rp4bc.Compile.compile_full ~pool rp4_prog with
  | Ok compiled -> compiled.Rp4bc.Compile.stats
  | Error errs -> fail "full compile: %s" (String.concat "; " errs)

(* Median of repeated measurements (software timings jitter). *)
let median xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted -> List.nth sorted (List.length sorted / 2)

let repeat n f = List.init n (fun _ -> f ())
