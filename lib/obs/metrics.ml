type counter = { c_name : string; c_on : bool; mutable c_value : int }

type histogram = {
  h_name : string;
  h_on : bool;
  bounds : int array; (* ascending inclusive upper bounds *)
  counts : int array; (* length bounds + 1; last = overflow *)
  mutable h_total : int;
  mutable h_sum : int;
  mutable h_max : int;
}

type metric = Counter of counter | Histogram of histogram

type t = {
  on : bool;
  tbl : (string, metric) Hashtbl.t;
  mutable order : string list; (* registration order, newest first *)
}

let create () = { on = true; tbl = Hashtbl.create 16; order = [] }
let null = { on = false; tbl = Hashtbl.create 1; order = [] }
let enabled t = t.on

let default_buckets = [| 1; 2; 4; 8; 16; 32; 64; 128; 256 |]

let counter t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Counter c) -> c
  | Some (Histogram _) ->
      invalid_arg (Printf.sprintf "Metrics.counter: %S is a histogram" name)
  | None ->
      let c = { c_name = name; c_on = t.on; c_value = 0 } in
      if t.on then begin
        Hashtbl.replace t.tbl name (Counter c);
        t.order <- name :: t.order
      end;
      c

let histogram t ?(buckets = default_buckets) name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Histogram h) -> h
  | Some (Counter _) ->
      invalid_arg (Printf.sprintf "Metrics.histogram: %S is a counter" name)
  | None ->
      let bounds = Array.copy buckets in
      Array.sort compare bounds;
      let h =
        {
          h_name = name;
          h_on = t.on;
          bounds;
          counts = Array.make (Array.length bounds + 1) 0;
          h_total = 0;
          h_sum = 0;
          h_max = 0;
        }
      in
      if t.on then begin
        Hashtbl.replace t.tbl name (Histogram h);
        t.order <- name :: t.order
      end;
      h

let incr ?(by = 1) c = if c.c_on then c.c_value <- c.c_value + by
let set c v = if c.c_on then c.c_value <- v
let value c = c.c_value

let bucket_index bounds v =
  (* first bound >= v; linear — bucket arrays are small by construction.
     A loop, not a local recursive function: [observe] runs per packet and
     must not allocate a closure. *)
  let i = ref 0 in
  while !i < Array.length bounds && v > bounds.(!i) do
    i := !i + 1
  done;
  !i

let observe h v =
  if h.h_on then begin
    let b = bucket_index h.bounds v in
    h.counts.(b) <- h.counts.(b) + 1;
    h.h_total <- h.h_total + 1;
    h.h_sum <- h.h_sum + v;
    if v > h.h_max then h.h_max <- v
  end

let total h = h.h_total
let sum h = h.h_sum
let max_observed h = h.h_max
let bucket_counts h = (Array.copy h.bounds, Array.copy h.counts)

let registered t =
  List.rev_map (fun name -> (name, Hashtbl.find t.tbl name)) t.order

let counters t =
  List.filter_map
    (function name, Counter c -> Some (name, c.c_value) | _ -> None)
    (registered t)

let histograms t =
  List.filter_map
    (function name, Histogram h -> Some (name, h) | _ -> None)
    (registered t)

(* --- JSON (schema "vw-metrics/1") --- *)

let add_int_array b a =
  Buffer.add_char b '[';
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (string_of_int v))
    a;
  Buffer.add_char b ']'

let to_json t =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n  \"schema\": \"vw-metrics/1\",\n  \"counters\": {";
  let cs = counters t in
  List.iteri
    (fun i (name, v) ->
      Buffer.add_string b (if i = 0 then "\n" else ",\n");
      Buffer.add_string b "    ";
      Buffer.add_string b ("\"" ^ Vw_util.Escape.json name ^ "\"");
      Buffer.add_string b (Printf.sprintf ": %d" v))
    cs;
  Buffer.add_string b (if cs = [] then "},\n" else "\n  },\n");
  Buffer.add_string b "  \"histograms\": {";
  let hs = histograms t in
  List.iteri
    (fun i (name, h) ->
      Buffer.add_string b (if i = 0 then "\n" else ",\n");
      Buffer.add_string b "    ";
      Buffer.add_string b ("\"" ^ Vw_util.Escape.json name ^ "\"");
      Buffer.add_string b ": { \"bounds\": ";
      add_int_array b h.bounds;
      Buffer.add_string b ", \"counts\": ";
      add_int_array b h.counts;
      Buffer.add_string b
        (Printf.sprintf ", \"total\": %d, \"sum\": %d, \"max\": %d }" h.h_total
           h.h_sum h.h_max))
    hs;
  Buffer.add_string b (if hs = [] then "}\n}\n" else "\n  }\n}\n");
  Buffer.contents b

let pp ppf t =
  Format.pp_open_vbox ppf 0;
  List.iter
    (fun (name, v) -> Format.fprintf ppf "%-40s %10d@," name v)
    (counters t);
  List.iter
    (fun (name, h) ->
      Format.fprintf ppf "%-40s total %d, sum %d, max %d@," name h.h_total
        h.h_sum h.h_max;
      Array.iteri
        (fun i c ->
          if c > 0 then
            if i < Array.length h.bounds then
              Format.fprintf ppf "  <= %-6d %10d@," h.bounds.(i) c
            else Format.fprintf ppf "  >  %-6d %10d@," h.bounds.(i - 1) c)
        h.counts)
    (histograms t);
  Format.pp_close_box ppf ()
