//! Golden streams: the first 20 units every driver hands out on the NELL
//! twin at seed 7. Campaign results, snapshots and the paper goldens all
//! rest on these draws, so a change to how a driver consumes its RNG
//! shows here first, unit by unit.
//!
//! A unit reads `cluster:triple,triple,...`, triples in draw order.

use kgae_graph::KnowledgeGraph;
use kgae_sampling::{DesignDriver, ScsDriver, SrsDriver, StratumSrsDriver, TwcsDriver, WcsDriver};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

fn first_units(d: &mut dyn DesignDriver) -> String {
    let mut rng = SmallRng::seed_from_u64(7);
    let mut buf = Vec::new();
    let mut units = Vec::new();
    for _ in 0..20 {
        let cluster = d.next_unit(&mut rng, &mut buf).unwrap();
        let triples: Vec<String> = buf.iter().map(|t| t.triple.index().to_string()).collect();
        units.push(format!("{}:{}", cluster.index(), triples.join(",")));
    }
    units.join(" ")
}

#[test]
fn srs_stream_is_pinned() {
    let kg = kgae_graph::datasets::nell();
    assert_eq!(
        first_units(&mut SrsDriver::new(&kg)),
        concat!(
            "51:102 146:320 593:1335 354:796 793:1792 382:868 600:1348 269:618 806:1827 74:144 ",
            "102:221 150:328 611:1368 6:10 413:927 93:194 143:316 165:356 101:220 656:1473"
        )
    );
}

#[test]
fn stratum_srs_stream_is_pinned() {
    let kg = kgae_graph::datasets::nell();
    let members = Arc::new((0..kg.num_triples()).filter(|t| t % 3 == 0).collect());
    assert_eq!(
        first_units(&mut StratumSrsDriver::new(&kg, members)),
        concat!(
            "51:102 147:321 593:1335 354:798 792:1791 384:873 601:1350 276:627 806:1827 82:159 ",
            "110:237 159:345 615:1374 113:243 420:939 100:219 157:342 171:384 119:252 658:1479"
        )
    );
}

#[test]
fn twcs_stream_is_pinned() {
    let kg = kgae_graph::datasets::nell();
    assert_eq!(
        first_units(&mut TwcsDriver::new(&kg, 3)),
        concat!(
            "45:89,88 591:1333,1332 599:1347,1346 88:182,179,180 4:6,5 433:973,975,976 ",
            "794:1798,1797,1799 243:563,564,565 147:321,322,323 545:1230 615:1374 ",
            "632:1408,1406,1405 738:1665,1664,1661 11:16,21,20 98:214,217,213 333:751 ",
            "549:1237,1236,1235 447:1009,1008,1010 711:1602 790:1785,1783,1782"
        )
    );
}

#[test]
fn wcs_stream_is_pinned() {
    let kg = kgae_graph::datasets::nell();
    assert_eq!(
        first_units(&mut WcsDriver::new(&kg)),
        concat!(
            "45:88,89 586:1318,1319 787:1777,1778,1779 591:1332,1333 802:1813,1814 ",
            "93:191,192,193,194 599:1346,1347 404:904 133:290 88:177,178,179,180,181,182 ",
            "551:1247 647:1443,1444,1445,1446 688:1541,1542 4:5,6 314:721,722 ",
            "656:1469,1470,1471,1472,1473 433:972,973,974,975,976 ",
            "278:629,630,631,632,633,634 206:481,482 684:1531,1532,1533"
        )
    );
}

#[test]
fn scs_stream_is_pinned() {
    let kg = kgae_graph::datasets::nell();
    assert_eq!(
        first_units(&mut ScsDriver::new(&kg)),
        concat!(
            "45:88,89 140:302 586:1318,1319 349:779 787:1777,1778,1779 ",
            "380:859,860,861,862,863,864 591:1332,1333 269:615,616,617,618 802:1813,1814 ",
            "59:113,114,115 93:191,192,193,194 140:302 599:1346,1347 92:188,189,190 404:904 ",
            "79:154,155 133:290 150:327,328 89:183,184,185 645:1440,1441"
        )
    );
}
