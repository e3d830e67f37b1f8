(* The benchmark's own checks: the tail rule, metric names, and that
   the pinned oracle catches a flipped byte in any op's output. Run
   with `dune build @perfbench/selftest`. *)

module Stat = Perfbench.Stat
module Oracle = Perfbench.Oracle
module R = Fpx_harness.Runner

let oracle = lazy (Oracle.load "oracle.txt")

let tail_rule () =
  Alcotest.(check (option int)) "151 ops -> p93" (Some 93) (Stat.tail_percentile 151);
  Alcotest.(check (option int)) "19 ops -> none" None (Stat.tail_percentile 19);
  Alcotest.(check (option int)) "20 ops -> p50" (Some 50) (Stat.tail_percentile 20);
  for n = 20 to 3000 do
    match Stat.tail_percentile n with
    | None -> Alcotest.failf "n=%d: no percentile" n
    | Some p ->
      if n - Stat.rank ~n p < 10 then Alcotest.failf "n=%d p%d: fewer than 10 beyond" n p;
      if p < 99 && n - Stat.rank ~n (p + 1) >= 10 then
        Alcotest.failf "n=%d p%d: p%d also has 10 beyond" n p (p + 1)
  done;
  let xs = Array.init 151 (fun i -> float_of_int (151 - i)) in
  Alcotest.(check (pair int (float 0.))) "value" (93, 141.) (Stat.tail xs)

(* Every name BENCHMARK.json lists, workloads and metrics, is a valid
   name and is used once. *)
let names () =
  let path = "../BENCHMARK.json" in
  let listed =
    Perfbench.Spec.workloads ~path ()
    @ List.map fst
        (Perfbench.Spec.metrics ~path "end_to_end" @ Perfbench.Spec.metrics ~path "per_layer")
  in
  Alcotest.(check bool) "lists metrics" true (List.length listed > 2);
  List.iter
    (fun n -> if not (Stat.valid_name n) then Alcotest.failf "bad metric name %S" n)
    listed;
  List.iter
    (fun n -> Alcotest.(check bool) n false (Stat.valid_name n))
    [ ""; "a b"; "p/s"; "x:y" ];
  Alcotest.(check int) "unique" (List.length listed)
    (List.length (List.sort_uniq compare listed))

let flip s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  Bytes.to_string b

(* Every output passes as pinned and fails with any one byte flipped. *)
let check_outputs kind outputs =
  let oracle = Lazy.force oracle in
  let ok = Oracle.tally () and bad = Oracle.tally () in
  List.iteri
    (fun i (key, out) ->
      Oracle.record ok oracle ~kind ~key (Some out);
      Oracle.record bad oracle ~kind ~key (Some (flip out (i * 7919 mod String.length out))))
    outputs;
  Alcotest.(check int) (kind ^ ": pinned outputs match") 0 ok.failed;
  Alcotest.(check int) (kind ^ ": every flip fails") (List.length outputs) bad.failed;
  Alcotest.(check bool) (kind ^ ": fail_frac > 0") true (Oracle.fail_frac bad > 0.)

let catalog () =
  check_outputs "catalog"
    (List.map
       (fun (w : Fpx_workloads.Workload.t) ->
         ( Fpx_workloads.Workload.suite_to_string w.suite ^ "/" ^ w.name,
           R.to_json (R.run ~tool:(R.Detector Gpu_fpx.Detector.default_config) w) ))
       Fpx_workloads.Catalog.evaluated)

let serve () =
  let srv = Fpx_serve.Server.create () in
  let outs =
    List.concat_map
      (fun tool ->
        List.map
          (fun p ->
            ( tool ^ "/" ^ p,
              Fpx_serve.Server.handle srv
                (Printf.sprintf "{\"op\":\"submit\",\"tool\":%S,\"program\":%S}" tool p) ))
          [ "GRAMSCHM"; "GEMM"; "Triad" ])
      [ "detect"; "analyze" ]
  in
  Fpx_serve.Server.shutdown srv;
  check_outputs "serve" outs

let campaign () =
  let cfg = Fpx_campaign.Campaign.config ~minimize:false ~seed:1 ~total:200 () in
  check_outputs "campaign"
    [ ("1/200", Fpx_campaign.Campaign.summary_json (Fpx_campaign.Campaign.run cfg)) ]

let () =
  Alcotest.run "perfbench"
    [ ("stat", [ Alcotest.test_case "tail rule" `Quick tail_rule ]);
      ("names", [ Alcotest.test_case "metric names" `Quick names ]);
      ("oracle",
       [ Alcotest.test_case "catalog flip" `Quick catalog;
         Alcotest.test_case "serve flip" `Quick serve;
         Alcotest.test_case "campaign flip" `Quick campaign ]) ]
