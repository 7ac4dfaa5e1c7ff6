(* In-memory span recorder for the traced benchmark run.

   Spans are kept column-wise (name, parent, start, end) in growable int
   arrays, so recording one costs two clock reads and four array stores
   and allocates nothing between growths.  Nesting follows the call
   stack: a span's parent is whichever span was open when it started. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  names : (string, int) Hashtbl.t;
  mutable name_of : int array;
  mutable parent : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable len : int;
  mutable stack : int array;
  mutable depth : int;
}

let create () =
  let cap = 4096 in
  {
    names = Hashtbl.create 16;
    name_of = Array.make cap 0;
    parent = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    len = 0;
    stack = Array.make 64 0;
    depth = 0;
  }

(** Intern a span name; call once per name, outside the hot path. *)
let name t s =
  match Hashtbl.find_opt t.names s with
  | Some id -> id
  | None ->
    let id = Hashtbl.length t.names in
    Hashtbl.add t.names s id;
    id

let names t =
  let a = Array.make (Hashtbl.length t.names) "" in
  Hashtbl.iter (fun s id -> a.(id) <- s) t.names;
  a

let grow a n = Array.append a (Array.make n 0)

let enter t nm =
  let id = t.len in
  if id = Array.length t.name_of then begin
    t.name_of <- grow t.name_of id;
    t.parent <- grow t.parent id;
    t.start <- grow t.start id;
    t.stop <- grow t.stop id
  end;
  if t.depth = Array.length t.stack then t.stack <- grow t.stack t.depth;
  t.name_of.(id) <- nm;
  t.parent.(id) <- (if t.depth = 0 then -1 else t.stack.(t.depth - 1));
  t.stack.(t.depth) <- id;
  t.depth <- t.depth + 1;
  t.len <- id + 1;
  t.start.(id) <- now_ns ();
  id

let leave t id =
  t.stop.(id) <- now_ns ();
  t.depth <- t.depth - 1

let within t nm f =
  let id = enter t nm in
  match f () with
  | v ->
    leave t id;
    v
  | exception e ->
    leave t id;
    raise e

let count t = t.len

let duration_ns t id = t.stop.(id) - t.start.(id)

(** Per-name totals: [(name, calls, total_ns, self_ns)], where a span's
    self time is its duration minus the durations of its direct children. *)
let summary t =
  let child = Array.make t.len 0 in
  for id = 0 to t.len - 1 do
    let p = t.parent.(id) in
    if p >= 0 then child.(p) <- child.(p) + duration_ns t id
  done;
  let nn = Hashtbl.length t.names in
  let calls = Array.make nn 0 and total = Array.make nn 0 and self = Array.make nn 0 in
  for id = 0 to t.len - 1 do
    let k = t.name_of.(id) in
    let d = duration_ns t id in
    calls.(k) <- calls.(k) + 1;
    total.(k) <- total.(k) + d;
    self.(k) <- self.(k) + d - child.(id)
  done;
  Array.to_list (Array.mapi (fun k s -> (s, calls.(k), total.(k), self.(k))) (names t))

(** Summed durations of the spans named [child] whose parent is named
    [parent]. *)
let under t ~parent ~child =
  let sum = ref 0 in
  for id = 0 to t.len - 1 do
    let p = t.parent.(id) in
    if t.name_of.(id) = child && p >= 0 && t.name_of.(p) = parent then
      sum := !sum + duration_ns t id
  done;
  !sum

(** Write every span as one tab-separated line:
    [id parent name start_ns end_ns], times relative to the first span. *)
let write t path =
  let oc = open_out path in
  let nm = names t in
  let t0 = if t.len = 0 then 0 else t.start.(0) in
  output_string oc "id\tparent\tname\tstart_ns\tend_ns\n";
  for id = 0 to t.len - 1 do
    Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\n" id t.parent.(id) nm.(t.name_of.(id))
      (t.start.(id) - t0) (t.stop.(id) - t0)
  done;
  close_out oc
