(* servebench tool: design generation and the in-process replays of a
   served request stream.

     main.exe designs < SPEC          write one .tirl per SPEC line
                                      "KERNEL SIZE LANES PATH"
     main.exe engine --stream F --trace 0|1 --out F [--spans F]
                     [--misses F]     replay F (one request body per
                                      line) through Protocol and Engine
     main.exe layers --stream F --misses F --out F [--spans F]
                                      replay the engine's own steps for
                                      the requests listed in --misses

   [engine] mirrors what [tybec serve] does per request — decode,
   [Engine.submit] on an engine with the default configuration, encode —
   and with [--trace 1] records a span around each of those three calls
   and nothing else. It writes the indices of the requests that missed
   the response cache to [--misses].

   [layers] runs in a process of its own, with no engine: for each
   missed request, in stream order, it calls the steps the engine would
   have taken (parse, validate, evaluate, sweep, place, simulate) under
   spans of their own. Those steps are the first calls on their inputs
   in that process, so the stage caches of the cost model and the DSE
   point cache evolve as the engine's did and the spans time the miss
   path. Nothing under lib/ is changed: the spans are the tool's. *)

module Ast = Tytra_ir.Ast
module Engine = Tytra_engine.Engine
module Protocol = Tytra_engine.Protocol
module Cache = Tytra_exec.Cache
module Dse = Tytra_dse.Dse
module Transform = Tytra_front.Transform
module Lower = Tytra_front.Lower
module Report = Tytra_cost.Report
module Span = Tytra_telemetry.Span

let program_of kernel size =
  match kernel with
  | Engine.Sor -> Tytra_kernels.Sor.program ~im:size ~jm:size ~km:size ()
  | Engine.Hotspot -> Tytra_kernels.Hotspot.program ~rows:size ~cols:size ()
  | Engine.Lavamd -> Tytra_kernels.Lavamd.program ~boxes:size ()
  | Engine.Srad -> Tytra_kernels.Srad.program ~rows:size ~cols:size ()

let variant_of_lanes l = if l <= 1 then Transform.Pipe else Transform.ParPipe l

(* ------------------------------------------------------------------ *)
(* designs                                                             *)
(* ------------------------------------------------------------------ *)

let designs () =
  let rec loop () =
    match input_line stdin with
    | exception End_of_file -> ()
    | line -> (
        match String.split_on_char ' ' (String.trim line) with
        | [ k; size; lanes; path ] ->
            let kernel =
              match Engine.kernel_of_string k with
              | Some k -> k
              | None -> failwith ("unknown kernel " ^ k)
            in
            let p = program_of kernel (int_of_string size) in
            Tytra_ir.Pprint.write_file path
              (Lower.lower p (variant_of_lanes (int_of_string lanes)));
            loop ()
        | [ "" ] -> loop ()
        | _ -> failwith ("bad design spec line: " ^ line))
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = {
  sp_id : int;
  sp_name : string;
  sp_tag : string;       (* lane class of the design, hit/miss, or "" *)
  sp_req : int;          (* request index in the stream, -1 for probes *)
  sp_parent : int;       (* enclosing span id, -1 at the root *)
  sp_blocking : bool;    (* on the request's blocking path *)
  sp_probe : bool;       (* from the fixed layer probe, not the stream *)
  sp_t0 : int64;
  sp_t1 : int64;
  sp_minor : float;      (* nan when not counted *)
  sp_major : float;
}

let tracing = ref false
let spans : span list ref = ref []
let next_id = ref 0
let parents : int list ref = ref []
let cur_req = ref (-1)
let in_probe = ref false

let now = Tytra_telemetry.Clock.now_ns

(* [Gc.minor_words] is exact at any point; [Gc.counters] only advances
   at minor collections, so it would make a span's count depend on where
   the collections fell. *)
let gc_words () = (Gc.minor_words (), (Gc.quick_stat ()).Gc.major_words)

let add_span s = spans := s :: !spans

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let parent () = match !parents with p :: _ -> p | [] -> -1

let with_span ?(tag = "") ?(blocking = true) name f =
  if not !tracing then f ()
  else begin
    let id = fresh_id () in
    let parent = parent () in
    parents := id :: !parents;
    let minor0, major0 = gc_words () in
    let t0 = now () in
    let finish () =
      let t1 = now () in
      let minor1, major1 = gc_words () in
      parents := List.tl !parents;
      add_span
        { sp_id = id; sp_name = name; sp_tag = tag; sp_req = !cur_req;
          sp_parent = parent; sp_blocking = blocking; sp_probe = !in_probe;
          sp_t0 = t0; sp_t1 = t1; sp_minor = minor1 -. minor0;
          sp_major = major1 -. major0 }
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* classify the span just closed (the head of [spans]) after the fact *)
let retag_last tag =
  match !spans with s :: rest -> spans := { s with sp_tag = tag } :: rest | [] -> ()

let lane_tag (d : Ast.design) =
  match (Tytra_ir.Config_tree.classify d).Tytra_ir.Config_tree.cs_knl with
  | 1 -> "pipe"
  | n -> Printf.sprintf "par%d" n

let evaluated_tags = [ "pipe"; "par4"; "par16"; "par64" ]

(* ------------------------------------------------------------------ *)
(* Metrics helpers                                                     *)
(* ------------------------------------------------------------------ *)

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let ratio a b = if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b)
let us_of dt = Int64.to_float dt /. 1000.0
let dur s = us_of (Int64.sub s.sp_t1 s.sp_t0)

let json_num x =
  if Float.is_nan x then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let named ?tag name =
  List.filter
    (fun s -> s.sp_name = name && match tag with None -> true | Some t -> s.sp_tag = t)
    (List.rev !spans)

(* which metrics came from the stream and which from the probe *)
let source : (string * string) list ref = ref []

(* the stream's samples where the stream reaches the layer, else the
   probe's *)
let pick key ss =
  match List.filter (fun s -> not s.sp_probe) ss with
  | [] ->
      source := (key, "probe") :: !source;
      List.filter (fun s -> s.sp_probe) ss
  | st ->
      source := (key, "stream") :: !source;
      st

let med_us key ?tag name = median (List.map dur (pick key (named ?tag name)))

let mean_minor key ?tag name =
  named ?tag name
  |> List.filter (fun s -> not (Float.is_nan s.sp_minor))
  |> pick key
  |> List.map (fun s -> s.sp_minor)
  |> mean

let write_json path ~metrics ~extra =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      Printf.fprintf oc "{\"metrics\":{%s},\"source\":{%s}%s}\n"
        (String.concat ","
           (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k (json_num v)) metrics))
        (String.concat ","
           (List.map (fun (k, v) -> Printf.sprintf "%S:%S" k v) (List.rev !source)))
        extra)

let write_spans path =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"tag\":%S,\"req\":%d,\"parent\":%s,\"blocking\":%b,\"probe\":%b,\"start_ns\":%Ld,\"end_ns\":%Ld,\"minor_words\":%s,\"major_words\":%s}\n"
        s.sp_id s.sp_name s.sp_tag s.sp_req
        (if s.sp_parent < 0 then "null" else string_of_int s.sp_parent)
        s.sp_blocking s.sp_probe s.sp_t0 s.sp_t1 (json_num s.sp_minor)
        (json_num s.sp_major))
    (List.rev !spans)

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

(* ------------------------------------------------------------------ *)
(* engine: the daemon's per-request work, in process                   *)
(* ------------------------------------------------------------------ *)

(* [Engine.submit], its span tagged "hit" or "miss" by the response cache *)
let submit eng ?deadline_s ?retries req =
  let rc0 = Engine.response_cache_stats eng in
  let r = with_span "engine.submit" (fun () -> Engine.submit ?deadline_s ?retries eng req) in
  let hit = (Engine.response_cache_stats eng).Cache.st_hits > rc0.Cache.st_hits in
  retag_last (if hit then "hit" else "miss");
  (r, hit)

(* A stream without response-cache hits (cost-cold, explore-sweep) still
   reports [engine.submit_hit_us]: three rounds of one miss and two hits
   on a cost request for SOR 64^3 par4, marked as probe samples. *)
let probe_hits eng =
  in_probe := true;
  cur_req := -1;
  let d = Lower.lower (program_of Engine.Sor 64) (variant_of_lanes 4) in
  let text = Tytra_ir.Pprint.design_to_string d in
  for round = 1 to 3 do
    let req =
      Engine.Cost
        { source = Engine.Inline text; device = Tytra_device.Device.stratixv_gsd8;
          form = Tytra_cost.Throughput.FormB; nki = round; optimize = false;
          calib = None }
    in
    for _ = 1 to 3 do ignore (submit eng req) done
  done;
  in_probe := false

let engine_replay ~stream ~trace ~out ~spans_path ~misses_path =
  tracing := trace;
  (* the server runs with telemetry live; so does its in-process twin *)
  Tytra_telemetry.Control.set_enabled true;
  let eng = Engine.create Engine.default_config in
  let bodies = read_lines stream in
  let n = List.length bodies in
  let request_us = ref [] and failed = ref 0 and bytes = ref 0 in
  let hits = ref 0 and misses = ref [] in
  let minor_req = ref [] and major_req = ref [] in
  let p0 = Engine.parse_cache_stats eng and d0 = Dse.cache_stats () in
  List.iteri
    (fun i body ->
      cur_req := i;
      bytes := !bytes + String.length body;
      let minor0, major0 = gc_words () in
      let t0 = now () in
      let served =
        with_span "request" @@ fun () ->
        match with_span "protocol.decode" (fun () -> Protocol.decode_request body) with
        | Error _ -> None
        | Ok dq ->
            let pc0 = Engine.parse_cache_stats eng in
            let r, hit =
              submit eng ?deadline_s:dq.Protocol.dq_deadline_s
                ~retries:dq.Protocol.dq_retries dq.Protocol.dq_request
            in
            let pc1 = Engine.parse_cache_stats eng in
            let op = Engine.op_name dq.Protocol.dq_request in
            ignore
              (with_span "protocol.encode" (fun () ->
                   match r with
                   | Ok resp -> Protocol.encode_response ~op resp
                   | Error e -> Protocol.encode_error e));
            Some (Result.is_ok r, hit, pc1.Cache.st_misses > pc0.Cache.st_misses)
      in
      let t1 = now () in
      let minor1, major1 = gc_words () in
      request_us := us_of (Int64.sub t1 t0) :: !request_us;
      minor_req := (minor1 -. minor0) :: !minor_req;
      major_req := (major1 -. major0) :: !major_req;
      match served with
      | Some (true, true, _) -> incr hits
      | Some (true, false, parse_missed) -> misses := (i, parse_missed) :: !misses
      | _ -> incr failed)
    bodies;
  let p1 = Engine.parse_cache_stats eng and d1 = Dse.cache_stats () in
  let stream_misses =
    List.filter (fun s -> s.sp_tag = "miss") (named "engine.submit")
  in
  if trace && !hits = 0 then probe_hits eng;
  let metrics =
    [ ("requests", float_of_int n);
      ("failed", float_of_int !failed);
      ("inproc_p50_us", median !request_us);
      ("inproc_request_sum_s", List.fold_left ( +. ) 0.0 !request_us /. 1e6);
      ("engine.response_cache.hit_ratio", ratio !hits (List.length !misses));
      ("engine.parse_cache.hit_ratio",
        ratio (p1.Cache.st_hits - p0.Cache.st_hits) (p1.Cache.st_misses - p0.Cache.st_misses));
      ("dse.point_cache.hit_ratio",
        ratio (d1.Cache.st_hits - d0.Cache.st_hits) (d1.Cache.st_misses - d0.Cache.st_misses));
      ("gc.minor_words_per_req", mean !minor_req);
      ("gc.major_words_per_req", mean !major_req);
      ("protocol.request_bytes", float_of_int !bytes /. float_of_int (max 1 n)) ]
    @
    if not trace then []
    else
      [ ("protocol.decode_us", med_us "protocol.decode_us" "protocol.decode");
        ("protocol.encode_us", med_us "protocol.encode_us" "protocol.encode");
        ("engine.submit_hit_us", med_us "engine.submit_hit_us" ~tag:"hit" "engine.submit");
        ("engine.submit_miss_us", med_us "engine.submit_miss_us" ~tag:"miss" "engine.submit");
        ("submit_miss_sum_us", List.fold_left (fun a s -> a +. dur s) 0.0 stream_misses) ]
  in
  write_json out ~metrics ~extra:"";
  Option.iter
    (fun path ->
      let oc = open_out_bin path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
          List.iter
            (fun (i, pm) -> Printf.fprintf oc "%d %d\n" i (if pm then 1 else 0))
            (List.rev !misses)))
    misses_path;
  Option.iter write_spans spans_path

(* ------------------------------------------------------------------ *)
(* layers: the engine's own steps for each response-cache miss         *)
(* ------------------------------------------------------------------ *)

(* validated designs by source text: the twin of the engine's parse
   cache, consulted when the engine's cache hit *)
let designs_seen : (string, Ast.design) Hashtbl.t = Hashtbl.create 256

let load ~parse_missed (src : Engine.source) =
  match src with
  | Engine.File _ -> None
  | Engine.Inline text ->
      if parse_missed || not (Hashtbl.mem designs_seen text) then
        match with_span "ir.parse" (fun () -> Tytra_ir.Parser.parse_result text) with
        | Error _ -> None
        | Ok d -> (
            match with_span "ir.validate" (fun () -> Tytra_ir.Validate.check d) with
            | [] ->
                Hashtbl.replace designs_seen text d;
                Some d
            | _ -> None)
      else Hashtbl.find_opt designs_seen text

let optimize opt d =
  if opt then with_span "ir.optimize" (fun () -> Engine.maybe_optimize true d)
  else d

(* sweep and synth totals *)
let sweeps = ref 0
let sweep_space = ref 0
let sweep_evaluated = ref 0
let sweep_pruned = ref 0
let anneal_moves = ref 0.0
let synths = ref 0

let moves_counter () =
  Option.value ~default:0.0
    (Tytra_telemetry.Metrics.counter_value "sim.techmap.anneal.moves")

let techmap ~device ~effort d =
  let m0 = moves_counter () in
  ignore
    (with_span ~tag:(lane_tag d) "sim.techmap" (fun () ->
         Tytra_sim.Techmap.run ~device ~effort d));
  anneal_moves := !anneal_moves +. (moves_counter () -. m0);
  incr synths

(* The cost evaluations a sweep performed, read back from the library's
   own [cost.evaluate] telemetry spans (recorded since [Span.reset]):
   each is followed in completion order by its enclosing [dse.point],
   whose variant gives the lane class. A point answered from the point
   cache has no evaluation. Their times are the sweep's own; allocation
   is not recorded there, so their words are left uncounted. *)
let sweep_evaluations ~parent =
  let pending = ref None in
  List.iter
    (fun (e : Span.event) ->
      match e.Span.ev_name with
      | "cost.evaluate" -> pending := Some e
      | "dse.point" -> (
          match (!pending, List.assoc_opt "variant" e.Span.ev_attrs) with
          | Some ev, Some (Span.Str v) ->
              pending := None;
              let tag =
                match String.split_on_char '-' v with
                | [ "pipe" ] -> "pipe"
                | [ par; "pipe" ] -> par
                | _ -> ""
              in
              if List.mem tag evaluated_tags then
                add_span
                  { sp_id = fresh_id (); sp_name = "cost.evaluate"; sp_tag = tag;
                    sp_req = !cur_req; sp_parent = parent; sp_blocking = true;
                    sp_probe = !in_probe; sp_t0 = ev.Span.ev_ts_ns;
                    sp_t1 = Int64.add ev.Span.ev_ts_ns ev.Span.ev_dur_ns;
                    sp_minor = Float.nan; sp_major = Float.nan }
          | _ -> pending := None)
      | _ -> ())
    (Span.events ())

let sweep_pool = lazy (Tytra_exec.Pool.create ~jobs:1 ())

(* The engine's explore: the sweep, with the point cache as the engine
   uses it, on the blocking path; then, off the blocking path, the
   front-end work it contains (template, one derive per evaluated
   variant) and the bounds of every replicated candidate against the
   pipe baseline. Those are pure, so they leave the caches as the engine
   left them. *)
let replay_explore (x : Engine.explore_params) =
  let prog = program_of x.Engine.x_kernel x.Engine.x_size in
  let jobs = if x.Engine.x_jobs = 0 then Tytra_exec.Pool.default_jobs () else x.Engine.x_jobs in
  let config =
    { Dse.default_config with
      device = x.Engine.x_device; form = x.Engine.x_form; nki = x.Engine.x_nki;
      max_lanes = x.Engine.x_max_lanes; jobs; prune = x.Engine.x_prune;
      max_attempts = 1 + max 0 x.Engine.x_retries;
      deadline_s = x.Engine.x_deadline_s; fail_fast = not x.Engine.x_best_effort;
      place_mode = x.Engine.x_place_mode }
  in
  let pool = if jobs = 1 then Lazy.force sweep_pool else Tytra_exec.Pool.create ~jobs () in
  Span.reset ();
  let sweep_id = !next_id in
  let sw = with_span "dse.sweep" (fun () -> Dse.explore_sweep_in ~pool ~config prog) in
  if !tracing then sweep_evaluations ~parent:sweep_id;
  let st = sw.Dse.sw_stats in
  incr sweeps;
  sweep_space := !sweep_space + st.Dse.ss_space;
  sweep_evaluated := !sweep_evaluated + st.Dse.ss_evaluated;
  sweep_pruned :=
    !sweep_pruned + st.Dse.ss_pruned_resource + st.Dse.ss_pruned_incumbent;
  let tpl = with_span ~blocking:false "front.lower" (fun () -> Lower.template prog) in
  let device = config.Dse.device and form = config.Dse.form in
  let baseline = ref None in
  List.iter
    (fun (p : Dse.point) ->
      match p.Dse.dp_variant with
      | Transform.Seq -> ()
      | Transform.Pipe -> baseline := Some p.Dse.dp_report
      | v ->
          ignore
            (with_span ~blocking:false ~tag:(lane_tag p.Dse.dp_design) "front.derive"
               (fun () -> Lower.derive tpl v)))
    sw.Dse.sw_points;
  Option.iter
    (fun base ->
      List.iter
        (fun v ->
          match v with
          | Transform.Seq | Transform.Pipe -> ()
          | _ ->
              ignore
                (with_span ~blocking:false "cost.bounds" (fun () ->
                     Tytra_cost.Bounds.of_baseline ~device ~form
                       ~pes:(Transform.pes v) base)))
        (List.map (fun (p : Dse.point) -> p.Dse.dp_variant) sw.Dse.sw_points
        @ List.map (fun (b : Dse.bounded) -> b.Dse.bp_variant) sw.Dse.sw_bounded))
    !baseline

let replay_layers ~parse_missed (req : Engine.request) =
  match req with
  | Engine.Check { source } -> (
      match load ~parse_missed source with
      | Some d ->
          ignore (with_span "ir.config_tree" (fun () -> Tytra_ir.Config_tree.build d))
      | None -> ())
  | Engine.Cost { source; device; form; nki; optimize = opt; calib = None } -> (
      match load ~parse_missed source with
      | Some d ->
          let d = optimize opt d in
          let tag = lane_tag d in
          ignore
            (with_span ~tag "cost.evaluate" (fun () ->
                 Report.evaluate ~device ~form ~nki d));
          ignore
            (with_span "cost.formsel" (fun () ->
                 Tytra_cost.Formsel.recommend ~device ~nki d));
          ignore
            (with_span "cost.roofline" (fun () ->
                 Tytra_cost.Roofline.of_design ~device ~form ~nki d));
          ignore
            (with_span ~blocking:false ~tag "ir.analysis" (fun () ->
                 Tytra_ir.Analysis.params d))
      | None -> ())
  | Engine.Cost _ -> ()
  | Engine.Synth { source; device; effort; optimize = opt } -> (
      match load ~parse_missed source with
      | Some d -> techmap ~device ~effort (optimize opt d)
      | None -> ())
  | Engine.Sim { source; device; form; nki; optimize = opt } -> (
      match load ~parse_missed source with
      | Some d ->
          let d = optimize opt d in
          let form =
            match form with
            | Tytra_cost.Throughput.FormA -> Tytra_sim.Cyclesim.A
            | Tytra_cost.Throughput.FormB -> Tytra_sim.Cyclesim.B
            | Tytra_cost.Throughput.FormC -> Tytra_sim.Cyclesim.C
          in
          ignore
            (with_span ~tag:(lane_tag d) "sim.cyclesim" (fun () ->
                 Tytra_sim.Cyclesim.run ~device ~form ~nki d))
      | None -> ())
  | Engine.Explore x -> replay_explore x

(* A fixed tour of SOR at 64^3, 56^3 and 48^3 (one size per round, so
   every round's designs are new to the caches), run after the stream
   and only for the layers the stream did not reach — for example the
   simulator on cost-cold, or front end and DSE on everything but
   explore-sweep. Its samples are marked as probe samples. *)
let probe () =
  let reached ?tag ?(counted = false) name =
    List.exists
      (fun s -> (not s.sp_probe) && (not (counted && Float.is_nan s.sp_minor))
                && s.sp_name = name
                && match tag with None -> true | Some t -> s.sp_tag = t)
      !spans
  in
  let need_ir = not (reached "ir.parse" && reached "ir.validate" && reached "ir.analysis") in
  let need_front = not (reached "front.lower" && reached ~counted:true "front.derive") in
  let need_cost =
    List.exists (fun tag -> not (reached ~tag ~counted:true "cost.evaluate")) evaluated_tags
  in
  let need_bounds = not (reached "cost.bounds") in
  let need_dse = !sweeps = 0 and need_techmap = !synths = 0 in
  let need_cyclesim = not (reached "sim.cyclesim") in
  in_probe := true;
  cur_req := -1;
  parents := [];
  let device = Tytra_device.Device.stratixv_gsd8 in
  let form = Tytra_cost.Throughput.FormB and nki = 1 in
  let measure need ?tag name f =
    if need then with_span ?tag name f else f ()
  in
  List.iteri
    (fun round size ->
      let prog = program_of Engine.Sor size in
      let tpl = measure need_front "front.lower" (fun () -> Lower.template prog) in
      let ds =
        List.map
          (fun l ->
            let v = variant_of_lanes l in
            if l = 1 then Lower.lower prog v
            else
              measure need_front ~tag:(Printf.sprintf "par%d" l) "front.derive" (fun () ->
                  Lower.derive tpl v))
          [ 1; 4; 16; 64 ]
      in
      if need_ir then
        List.iter
          (fun d ->
            let text = Tytra_ir.Pprint.design_to_string d in
            let tag = lane_tag d in
            (match with_span ~tag "ir.parse" (fun () -> Tytra_ir.Parser.parse_result text) with
            | Ok d' -> ignore (with_span ~tag "ir.validate" (fun () -> Tytra_ir.Validate.check d'))
            | Error _ -> failwith "probe: design does not re-parse");
            ignore (with_span ~tag "ir.analysis" (fun () -> Tytra_ir.Analysis.params d)))
          ds;
      let reports =
        List.map
          (fun d ->
            measure need_cost ~tag:(lane_tag d) "cost.evaluate" (fun () ->
                Report.evaluate ~device ~form ~nki d))
          ds
      in
      if need_bounds then
        List.iter
          (fun pes ->
            ignore
              (with_span "cost.bounds" (fun () ->
                   Tytra_cost.Bounds.of_baseline ~device ~form ~pes (List.hd reports))))
          [ 4; 16; 64 ];
      if need_dse then
        replay_explore
          { Engine.x_kernel = Engine.Sor; x_size = 16; x_max_lanes = 64; x_device = device;
            x_form = form; x_nki = round + 1; x_jobs = 1; x_prune = true; x_retries = 0;
            x_deadline_s = None; x_best_effort = false; x_checkpoint = None;
            x_checkpoint_every = 0; x_resume = None; x_place_mode = None };
      if need_techmap then techmap ~device ~effort:`Fast (List.nth ds 1);
      if need_cyclesim then
        ignore
          (with_span ~tag:"pipe" "sim.cyclesim" (fun () ->
               Tytra_sim.Cyclesim.run ~device (List.hd ds))))
    [ 64; 56; 48 ];
  in_probe := false

(* Warm [Report.evaluate] allocation on SOR 64^3 with telemetry off —
   the figure the per-layer allocation gate is built on. *)
let warm_evaluate_words () =
  Tytra_telemetry.Control.with_enabled false @@ fun () ->
  let prog = program_of Engine.Sor 64 in
  List.map
    (fun l ->
      let d = Lower.lower prog (variant_of_lanes l) in
      ignore (Report.evaluate d);
      ignore (Report.evaluate d);
      let w0 = Gc.minor_words () in
      ignore (Report.evaluate d);
      let w1 = Gc.minor_words () in
      (lane_tag d, w1 -. w0))
    [ 1; 4; 16; 64 ]

let layers_replay ~stream ~misses_path ~out ~spans_path =
  tracing := true;
  Tytra_telemetry.Control.set_enabled true;
  let bodies = Array.of_list (read_lines stream) in
  let failed = ref 0 in
  let misses =
    List.map
      (fun l -> Scanf.sscanf l "%d %d" (fun i pm -> (i, pm = 1)))
      (read_lines misses_path)
  in
  let root_ids = ref [] in
  List.iter
    (fun (i, parse_missed) ->
      cur_req := i;
      Span.reset ();
      match Protocol.decode_request bodies.(i) with
      | Error _ -> incr failed
      | Ok dq -> (
          root_ids := !next_id :: !root_ids;
          try
            with_span "request" (fun () ->
                replay_layers ~parse_missed dq.Protocol.dq_request)
          with e ->
            prerr_endline ("layers: step failed: " ^ Printexc.to_string e);
            incr failed))
    misses;
  (* blocking-path layer spans: direct children of a request root *)
  let roots = Hashtbl.create 1024 in
  List.iter (fun r -> Hashtbl.replace roots r ()) !root_ids;
  let blocking_sum =
    List.fold_left
      (fun acc s ->
        if s.sp_blocking && Hashtbl.mem roots s.sp_parent then acc +. dur s else acc)
      0.0 !spans
  in
  let stream_sweeps = !sweeps and stream_synths = !synths in
  let sw = (!sweep_space, !sweep_evaluated, !sweep_pruned) in
  let stream_anneal = !anneal_moves in
  probe ();
  let roadmap = warm_evaluate_words () in
  let n_sweeps, (space, evaluated, pruned) =
    let from where =
      source := ("dse.points_evaluated", where) :: ("dse.prune_ratio", where) :: !source
    in
    if stream_sweeps > 0 then (from "stream"; (stream_sweeps, sw))
    else begin
      from "probe";
      let s0, e0, p0 = sw in
      ( !sweeps - stream_sweeps,
        (!sweep_space - s0, !sweep_evaluated - e0, !sweep_pruned - p0) )
    end
  in
  let anneal, nsynth =
    if stream_synths > 0 then (stream_anneal, stream_synths)
    else begin
      source := ("sim.anneal_moves", "probe") :: !source;
      (!anneal_moves -. stream_anneal, !synths - stream_synths)
    end
  in
  let metrics =
    [ ("failed", float_of_int !failed);
      ("replayed", float_of_int (List.length misses));
      ("blocking_sum_us", blocking_sum);
      ("ir.parse_us", med_us "ir.parse_us" "ir.parse");
      ("ir.parse_minor_words", mean_minor "ir.parse_minor_words" "ir.parse");
      ("ir.validate_us", med_us "ir.validate_us" "ir.validate");
      ("ir.analysis_us", med_us "ir.analysis_us" "ir.analysis");
      ("front.lower_us", med_us "front.lower_us" "front.lower");
      ("front.derive_us", med_us "front.derive_us" "front.derive");
      ("front.derive_minor_words", mean_minor "front.derive_minor_words" "front.derive");
      ("cost.bounds_us", med_us "cost.bounds_us" "cost.bounds") ]
    @ List.concat_map
        (fun tag ->
          [ ("cost.evaluate_us." ^ tag,
              med_us ("cost.evaluate_us." ^ tag) ~tag "cost.evaluate");
            ("cost.evaluate_minor_words." ^ tag,
              mean_minor ("cost.evaluate_minor_words." ^ tag) ~tag "cost.evaluate") ])
        evaluated_tags
    @ [ ("dse.sweep_us", med_us "dse.sweep_us" "dse.sweep");
        ("dse.points_evaluated", float_of_int evaluated /. float_of_int (max 1 n_sweeps));
        ("dse.prune_ratio", float_of_int pruned /. float_of_int (max 1 space));
        ("sim.techmap_us", med_us "sim.techmap_us" "sim.techmap");
        ("sim.techmap_minor_words", mean_minor "sim.techmap_minor_words" "sim.techmap");
        ("sim.anneal_moves", anneal /. float_of_int (max 1 nsynth));
        ("sim.cyclesim_us", med_us "sim.cyclesim_us" "sim.cyclesim") ]
  in
  write_json out ~metrics
    ~extra:
      (Printf.sprintf ",\"warm_evaluate_minor_words\":{%s}"
         (String.concat ","
            (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k (json_num v)) roadmap)));
  Option.iter write_spans spans_path

let () =
  let usage =
    "main.exe (designs | engine --stream F --trace 0|1 --out F [--spans F] [--misses F]\n\
    \          | layers --stream F --misses F --out F [--spans F])"
  in
  let stream = ref "" and trace = ref 0 and out = ref "" and spans = ref "" in
  let misses = ref "" in
  let parse mode rest =
    let specs =
      [ ("--stream", Arg.Set_string stream, "request bodies, one per line");
        ("--trace", Arg.Set_int trace, "1 = record spans");
        ("--out", Arg.Set_string out, "metrics JSON output");
        ("--spans", Arg.Set_string spans, "span JSONL output");
        ("--misses", Arg.Set_string misses, "indices of response-cache misses") ]
    in
    Arg.parse_argv ~current:(ref 0) (Array.of_list (mode :: rest)) specs
      (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
      usage;
    if !stream = "" || !out = "" then (prerr_endline usage; exit 2)
  in
  let opt r = if !r = "" then None else Some !r in
  match Array.to_list Sys.argv with
  | _ :: "designs" :: _ -> designs ()
  | _ :: "engine" :: rest ->
      parse "engine" rest;
      engine_replay ~stream:!stream ~trace:(!trace = 1) ~out:!out ~spans_path:(opt spans)
        ~misses_path:(opt misses)
  | _ :: "layers" :: rest ->
      parse "layers" rest;
      if !misses = "" then (prerr_endline usage; exit 2);
      layers_replay ~stream:!stream ~misses_path:!misses ~out:!out ~spans_path:(opt spans)
  | _ ->
      prerr_endline usage;
      exit 2
