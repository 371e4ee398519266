(* Process-wide string interning.

   The template compiler (Ipsa.Flat) resolves every header name to a
   small integer once at template-download time, so the steady-state
   packet path can key its maps by [int] instead of hashing strings. Ids are dense, stable for the lifetime of the process, and
   shared by every device in it — two devices interning "ipv4" agree on
   the id, which keeps compiled programs trivially comparable in tests.

   Interning itself hashes the string, so it belongs to load-time code
   only; per-packet code should carry ids it obtained at link time. *)

type id = int

let table : (string, int) Hashtbl.t = Hashtbl.create 256
let names = ref (Array.make 256 "")
let count = ref 0

let id s =
  match Hashtbl.find_opt table s with
  | Some i -> i
  | None ->
    let i = !count in
    if i >= Array.length !names then begin
      let bigger = Array.make (2 * Array.length !names) "" in
      Array.blit !names 0 bigger 0 i;
      names := bigger
    end;
    !names.(i) <- s;
    incr count;
    Hashtbl.replace table s i;
    i

let name i =
  if i < 0 || i >= !count then
    invalid_arg (Printf.sprintf "Intern.name: unknown id %d" i)
  else !names.(i)

let mem s = Hashtbl.mem table s
let size () = !count
